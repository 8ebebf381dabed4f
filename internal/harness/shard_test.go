package harness

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/wal"
)

// shardedConfig is a small experiment with n range-partitioned DCs.
func shardedConfig(n int) Config {
	cfg := DefaultConfig().Scaled(40)
	cfg.Engine.Shards = n
	return cfg
}

// TestShardedVsSingleRecoveredStateEquality is the sharded-state
// oracle: the same deterministic workload crashed on a 1-shard and a
// 4-shard engine must recover to identical table states under every
// method family, serial and with per-shard parallel workers. Under
// -race this also exercises the demultiplexer and the concurrent
// per-shard pipelines.
func TestShardedVsSingleRecoveredStateEquality(t *testing.T) {
	single, err := BuildCrash(shardedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildCrash(shardedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, same logical sequence: the committed oracles must be
	// identical before recovery even starts.
	if len(single.Oracle) != len(sharded.Oracle) {
		t.Fatalf("oracle divergence: single %d rows, sharded %d rows", len(single.Oracle), len(sharded.Oracle))
	}
	for k, v := range single.Oracle {
		if string(sharded.Oracle[k]) != string(v) {
			t.Fatalf("oracle divergence at key %d", k)
		}
	}

	for _, m := range []core.Method{core.Log1, core.SQL1} {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", m, workers), func(t *testing.T) {
				opt := core.DefaultOptions(shardedConfig(1).Engine)
				opt.RedoWorkers = workers
				opt.UndoWorkers = workers

				engSingle, _, err := core.Recover(single.Crash, m, opt)
				if err != nil {
					t.Fatalf("single recovery: %v", err)
				}
				engSharded, met, err := core.Recover(sharded.Crash, m, opt)
				if err != nil {
					t.Fatalf("sharded recovery: %v", err)
				}
				if met.Shards != 4 {
					t.Fatalf("metrics report %d shards, want 4", met.Shards)
				}
				if err := Verify(engSingle, single.Oracle); err != nil {
					t.Fatalf("single recovery wrong: %v", err)
				}
				if err := Verify(engSharded, sharded.Oracle); err != nil {
					t.Fatalf("sharded recovery wrong: %v", err)
				}

				// Row-by-row equality between the two recovered engines.
				rows := make(map[uint64]string)
				if err := engSingle.Set.ScanAll(func(k uint64, v []byte) error {
					rows[k] = string(v)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				count := 0
				if err := engSharded.Set.ScanAll(func(k uint64, v []byte) error {
					if rows[k] != string(v) {
						return fmt.Errorf("key %d: single %q vs sharded %q", k, rows[k], v)
					}
					count++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if count != len(rows) {
					t.Fatalf("sharded recovered %d rows, single %d", count, len(rows))
				}
			})
		}
	}
}

// TestEveryWidthSameRecovery is the width oracle: on a 1-shard and a
// 4-shard crash of the same workload, every method at every redo width
// × undo width reproduces the committed state with well-formed trees,
// sees the same redo window, writes the same CLRs, and appends the
// byte-identical record sequence — abort records included — as the
// inline width.
func TestEveryWidthSameRecovery(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := shardedConfig(shards)
		cfg.OpenTxns, cfg.OpenTxnUpdates = 3, 4
		res, err := BuildCrash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stableEnd := res.Crash.Log.FlushedLSN()
		for _, m := range core.Methods() {
			var inline *core.Metrics
			var inlineLog []string
			for _, rw := range []int{0, 1, 2, 4} {
				for _, uw := range []int{0, 1, 2, 4} {
					what := fmt.Sprintf("shards=%d %v redo=%d undo=%d", shards, m, rw, uw)
					opt := core.DefaultOptions(cfg.Engine)
					opt.RedoWorkers, opt.UndoWorkers = rw, uw
					eng, met, err := core.Recover(res.Crash, m, opt)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if err := Verify(eng, res.Oracle); err != nil {
						t.Fatalf("%s: wrong state: %v", what, err)
					}
					for i, d := range eng.DCs {
						if err := d.Tree().CheckInvariants(); err != nil {
							t.Fatalf("%s: shard %d tree: %v", what, i, err)
						}
					}
					var appended []string
					sc := eng.Log.NewScanner(stableEnd, nil, wal.ScanCost{})
					for {
						rec, lsn, ok, err := sc.Next()
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if !ok {
							break
						}
						appended = append(appended, fmt.Sprintf("%v %v %+v", lsn, rec.Type(), rec))
					}
					if inline == nil {
						inline, inlineLog = met, appended
						if met.LosersUndone != 3 || len(appended) != int(met.CLRsWritten)+3 {
							t.Fatalf("%s: %d losers, %d CLRs, %d appended records", what, met.LosersUndone, met.CLRsWritten, len(appended))
						}
						continue
					}
					if met.RedoRecords != inline.RedoRecords || met.CLRsWritten != inline.CLRsWritten {
						t.Errorf("%s: RedoRecords %d CLRsWritten %d, inline %d and %d", what,
							met.RedoRecords, met.CLRsWritten, inline.RedoRecords, inline.CLRsWritten)
					}
					if !slices.Equal(appended, inlineLog) {
						t.Errorf("%s: appended log differs from the inline width's:\n got  %v\n want %v", what, appended, inlineLog)
					}
				}
			}
		}
	}
}

// TestShardedFileCrashRecover is the acceptance path: a 4-shard engine
// on real files (per-shard pages.db under shard-N directories, one WAL,
// one master record) crashes process-kill-style and recovers all shards
// concurrently to a state equal to the 1-shard file engine recovered
// from the same workload.
func TestShardedFileCrashRecover(t *testing.T) {
	cfg := shardedConfig(4)
	cfg.Engine.Device = engine.DeviceFile
	cfg.Engine.Dir = t.TempDir()
	cfg.OpenTxns = 2
	cfg.OpenTxnUpdates = 4
	res, err := BuildCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := shardedConfig(1)
	single.Engine.Device = engine.DeviceFile
	single.Engine.Dir = t.TempDir()
	single.OpenTxns = 2
	single.OpenTxnUpdates = 4
	singleRes, err := BuildCrash(single)
	if err != nil {
		t.Fatal(err)
	}
	singleEng, _, err := core.Recover(singleRes.Crash, core.Log1, core.DefaultOptions(single.Engine))
	if err != nil {
		t.Fatal(err)
	}
	singleRows := make(map[uint64]string)
	if err := singleEng.Set.ScanAll(func(k uint64, v []byte) error {
		singleRows[k] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, m := range []core.Method{core.Log1, core.SQL1} {
		t.Run(m.String(), func(t *testing.T) {
			opt := core.DefaultOptions(cfg.Engine)
			eng, met, err := core.Recover(res.Crash, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(eng, res.Oracle); err != nil {
				t.Fatalf("sharded recovery wrong: %v", err)
			}
			if met.Shards != 4 {
				t.Fatalf("recovered %d shards, want 4", met.Shards)
			}
			if met.Applied == 0 {
				t.Fatal("recovery applied nothing; the crash had a redo window")
			}
			if met.LosersUndone != 2 {
				t.Fatalf("losers undone = %d, want 2", met.LosersUndone)
			}
			// Row-for-row equality with the recovered 1-shard engine.
			count := 0
			if err := eng.Set.ScanAll(func(k uint64, v []byte) error {
				if singleRows[k] != string(v) {
					return fmt.Errorf("key %d: single %q vs 4-shard %q", k, singleRows[k], v)
				}
				count++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if count != len(singleRows) {
				t.Fatalf("4-shard engine recovered %d rows, 1-shard %d", count, len(singleRows))
			}
		})
	}
}

// TestShardedDecodeWidthOracle pins the parallel decode front-end to
// the inline contract: the same crash, on one shard and on four, its
// redo window spanning several log segments, recovered at every decode
// width must yield byte-identical recovered rows, the same CLR count
// and the same log end as one worker decoding the segments in log
// order — and the decode telemetry must say that is what ran.
func TestShardedDecodeWidthOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardedConfig(shards)
			cfg.OpenTxns = 3
			cfg.OpenTxnUpdates = 5
			// Some 23 log bytes an update, the trackers' records
			// included: a 2.75 MB window over three 1 MiB segments.
			cfg.CrashAfterCheckpoints = 1
			cfg.UpdatesAfterLastCkpt = 120_000
			res, err := BuildCrash(cfg)
			if err != nil {
				t.Fatal(err)
			}

			type recovered struct {
				rows    map[uint64]string
				clrs    int64
				logEnd  int64
				decoded int64
			}
			recoverAt := func(width int) recovered {
				t.Helper()
				opt := core.DefaultOptions(cfg.Engine)
				opt.RedoWorkers = 2
				opt.UndoWorkers = 2
				// Decode runs one worker a core: GOMAXPROCS is the width.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
				eng, met, err := core.Recover(res.Crash, core.Log1, opt)
				if err != nil {
					t.Fatalf("decode=%d: %v", width, err)
				}
				if err := Verify(eng, res.Oracle); err != nil {
					t.Fatalf("decode=%d: wrong state: %v", width, err)
				}
				// Prep and redo each read the window once.
				if met.DecodeSegments < 2*3 || met.DecodeWorkers != width {
					t.Fatalf("decode=%d: two passes read %d segments on %d workers; want at least 3 a pass on %d",
						width, met.DecodeSegments, met.DecodeWorkers, width)
				}
				rows := make(map[uint64]string)
				if err := eng.Set.ScanAll(func(k uint64, v []byte) error {
					rows[k] = string(v)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return recovered{rows: rows, clrs: met.CLRsWritten, logEnd: int64(eng.Log.EndLSN()), decoded: met.DecodeRecords}
			}

			base := recoverAt(1)
			if base.clrs == 0 {
				t.Fatal("baseline wrote no CLRs; the crash needs losers to make the oracle meaningful")
			}
			for _, w := range []int{1, 2, 8} {
				got := recoverAt(w)
				if got.clrs != base.clrs {
					t.Fatalf("decode=%d: CLRs %d, width 1 %d", w, got.clrs, base.clrs)
				}
				if got.logEnd != base.logEnd {
					t.Fatalf("decode=%d: log end %d, width 1 %d", w, got.logEnd, base.logEnd)
				}
				if got.decoded != base.decoded {
					t.Fatalf("decode=%d: %d records decoded, width 1 %d", w, got.decoded, base.decoded)
				}
				if len(got.rows) != len(base.rows) {
					t.Fatalf("decode=%d: %d rows, width 1 %d", w, len(got.rows), len(base.rows))
				}
				for k, v := range base.rows {
					if got.rows[k] != v {
						t.Fatalf("decode=%d: key %d diverged", w, k)
					}
				}
			}
		})
	}
}

// TestSimTornTailRecovery injects byte-level tears into the simulated
// crash snapshot (mid-frame-header and mid-body, the same shapes the
// file tests tear) and checks recovery trims the torn tail via the
// codec's ErrTruncated path and still reproduces the committed state.
func TestSimTornTailRecovery(t *testing.T) {
	for _, tear := range []int{3, 17} {
		t.Run(fmt.Sprintf("tear%d", tear), func(t *testing.T) {
			cfg := DefaultConfig().Scaled(40)
			cfg.TornTailBytes = tear
			res, err := BuildCrash(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The tear extended the snapshot past its stable end; the
			// fork must trim back to it (LogBytes: everything was
			// flushed by the final EOSL, so stable end = log end).
			if int64(res.Crash.Log.EndLSN()) != res.LogBytes+int64(tear) {
				t.Fatalf("snapshot ends at %v, want stable end %d + %d torn bytes",
					res.Crash.Log.EndLSN(), res.LogBytes, tear)
			}
			_, _, log, err := res.Crash.Fork(0)
			if err != nil {
				t.Fatal(err)
			}
			if int64(log.EndLSN()) != res.LogBytes {
				t.Fatalf("forked log ends at %v, want torn tail trimmed back to %d", log.EndLSN(), res.LogBytes)
			}
			if _, err := RunRecovery(res, core.Log1, core.DefaultOptions(cfg.Engine)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimShardedTornTail runs the tear through the sharded path too:
// the single demultiplexed log trims once and every shard still
// recovers.
func TestSimShardedTornTail(t *testing.T) {
	cfg := shardedConfig(2)
	cfg.TornTailBytes = 9
	res, err := BuildCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRecovery(res, core.Log1, core.DefaultOptions(cfg.Engine)); err != nil {
		t.Fatal(err)
	}
}
