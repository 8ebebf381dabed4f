package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"logrec/internal/engine"
)

// BenchmarkRecover recovers one fixed crash per iteration under each
// method: 4,000 committed two-update transactions and one loser over a
// cached 2,000-row table, never checkpointed, so the redo window is the
// whole log. Allocations are reported with the time, so the per-record
// cost of the transaction table and the replay loop shows in both.
//
// The groups after the methods sweep one dimension each with Log2, in
// wall-clock time (on the sim device that is replay CPU: its IO costs
// only virtual time):
//
//   - redo/w{0,1,2,4}: Options.RedoWorkers over the same crash;
//   - undo/w{1,2,4}: Options.UndoWorkers over a crash with eight
//     long-running losers whose pages the committed traffic evicted;
//   - shards/{1,2,4}: the same traffic on engines of that many shards;
//   - device/{sim,file}: a smaller crash on each device; on the file
//     device recovery reads and writes real files;
//   - budget-5ms: a crash taken under the checkpoint daemon with a 5 ms
//     RecoveryBudget (report-only: replay_s/budget is the wall replay
//     time over the budget).
//
// Every case checks its first recovery against the committed-state
// oracle, outside the timer. redo-ns/op and undo-ns/op are the wall
// times of the two passes.
func BenchmarkRecover(b *testing.B) {
	cfg := testConfig(3000)
	cs, om := buildCrash(b, cfg, 2000, 4000, 2, 1<<30, 7, true)
	for _, m := range Methods() {
		recoverCase(b, m.String(), cs, om, m, Options{})
	}
	b.Run("redo", func(b *testing.B) {
		for _, w := range []int{0, 1, 2, 4} {
			recoverCase(b, fmt.Sprintf("w%d", w), cs, om, Log2, Options{RedoWorkers: w})
		}
	})
	b.Run("undo", func(b *testing.B) {
		ucs, uom := buildCrashWithLosers(b, testConfig(16), 2000, 400, 8, 8, loserSpec{updates: 25}, 7)
		for _, w := range []int{1, 2, 4} {
			recoverCase(b, fmt.Sprintf("w%d", w), ucs, uom, Log2, Options{UndoWorkers: w})
		}
	})
	b.Run("shards", func(b *testing.B) {
		for _, n := range []int{1, 2, 4} {
			scfg := cfg
			scfg.Shards, scfg.KeySpan = n, 2000
			scs, som := buildCrash(b, scfg, 2000, 4000, 2, 1<<30, 7, true)
			recoverCase(b, fmt.Sprint(n), scs, som, Log2, Options{})
		}
	})
	b.Run("device", func(b *testing.B) {
		// Every file-device commit is an fsync: 500 transactions keep
		// the build short on a real disk.
		scs, som := buildCrash(b, cfg, 2000, 500, 8, 1<<30, 7, true)
		recoverCase(b, "sim", scs, som, Log2, Options{})
		fcfg := cfg
		fcfg.Device, fcfg.Dir = engine.DeviceFile, b.TempDir()
		fcs, fom := buildCrash(b, fcfg, 2000, 500, 8, 1<<30, 7, true)
		recoverCase(b, "file", fcs, fom, Log2, Options{})
	})
	b.Run("budget-5ms", func(b *testing.B) {
		probe, _, err := Recover(cs, Log2, Options{})
		if err != nil {
			b.Fatal(err)
		}
		bcs, bom := buildBudgetCrash(b, cfg, 5*time.Millisecond, probe.LastRecovery)
		recoverCase(b, "Log2", bcs, bom, Log2, Options{})
	})
}

// recoverCase is one sub-benchmark: b.N recoveries of cs by m at opt.
// The case's first recovery is checked against the oracle with the
// timer stopped, once, though the framework runs the function more
// than once to size b.N. A crash with a RecoveryBudget also reports
// its wall replay time (redo and everything before it) over the budget.
func recoverCase(b *testing.B, name string, cs *engine.CrashState, om oracle, m Method, opt Options) {
	verified := false
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		var redo, undo, replay time.Duration
		for i := 0; i < b.N; i++ {
			eng, met, err := Recover(cs, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			redo += met.WallRedoTime
			undo += met.WallUndoTime
			replay += met.WallTotalTime - met.WallUndoTime
			if !verified {
				b.StopTimer()
				verifyRecovered(b, m, eng, om)
				verified = true
				b.StartTimer()
			}
		}
		n := float64(b.N)
		b.ReportMetric(float64(redo.Nanoseconds())/n, "redo-ns/op")
		b.ReportMetric(float64(undo.Nanoseconds())/n, "undo-ns/op")
		if budget := cs.Cfg.RecoveryBudget; budget > 0 {
			b.ReportMetric(replay.Seconds()/n/budget.Seconds(), "replay_s/budget")
		}
	})
}

// buildBudgetCrash is buildCrash under the checkpoint daemon: an engine
// with budget as its RecoveryBudget and probe as its replay-rate seed
// commits two-update transactions until it has logged six budgets'
// worth of replay at the probe's rate (within 256 KiB–4 MiB), leaves
// one loser in flight and crashes. The daemon must have checkpointed,
// or the case would time an unbudgeted window.
func buildBudgetCrash(b *testing.B, cfg engine.Config, budget time.Duration, probe *engine.RecoveryStats) (*engine.CrashState, oracle) {
	const nRows = 2000
	cfg.RecoveryBudget = budget
	eng, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	om := make(oracle, nRows)
	if err := eng.Load(nRows, func(k uint64) []byte {
		om[k] = val(k, 0)
		return om[k]
	}); err != nil {
		b.Fatal(err)
	}
	eng.LastRecovery = probe
	mgr := eng.NewSessionManager(0)
	ckpt, err := eng.StartCheckpointer(mgr)
	if err != nil {
		b.Fatal(err)
	}
	defer ckpt.Stop()
	target := min(max(int64(probe.ReplayBytesPerSec*budget.Seconds()*6), 256<<10), 4<<20)
	rng := rand.New(rand.NewSource(7))
	start := eng.Log.EndLSN()
	for i := 0; int64(eng.Log.EndLSN()-start) < target; i++ {
		txn := begin(b, mgr)
		staged := make(map[uint64][]byte)
		for u := 0; u < 2; u++ {
			k := uint64(rng.Intn(nRows))
			staged[k] = val(k, i+1)
			if err := txn.Update(cfg.TableID, k, staged[k]); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		for k, v := range staged {
			om[k] = v
		}
	}
	loser := begin(b, mgr)
	for u := 0; u < 2; u++ {
		if err := loser.Update(cfg.TableID, uint64(rng.Intn(nRows)), []byte("UNCOMMITTED-GARBAGE-value")); err != nil {
			b.Fatal(err)
		}
	}
	eng.TC.SendEOSL()
	ckpt.Stop()
	if st := ckpt.Stats(); st.LastErr != nil || st.Taken == 0 {
		b.Fatalf("checkpoint daemon: %d checkpoints, error %v", st.Taken, st.LastErr)
	}
	return eng.Crash(), om
}
