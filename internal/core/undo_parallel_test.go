package core

import (
	"fmt"
	"math/rand"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// appendedLog renders every record a recovery appended past the crash's
// stable end — LSN, type and every field — one string per record.
func appendedLog(t *testing.T, eng *engine.Engine, from wal.LSN) []string {
	t.Helper()
	var out []string
	sc := eng.Log.NewScanner(from, nil, wal.ScanCost{})
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%v %v %+v", lsn, rec.Type(), rec))
	}
}

// diffLogs fails the test at the first record where got departs from
// want.
func diffLogs(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Errorf("%s: appended record %d of %d differs:\n got  %v\n want %v", what, i, len(want), got[i:min(i+1, len(got))], want[i])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: appended %d records, want %d", what, len(got), len(want))
	}
}

// loserSpec shapes each loser transaction's operations so undo
// exercises every path: same-size updates (routed, non-structural),
// inserts of fresh keys (undo = page delete, non-structural), deletes
// (undo re-inserts and may split — structural), and shrinking updates
// (undo restores a larger value — structural).
type loserSpec struct {
	updates int
	inserts int
	deletes int
	shrinks int
}

// buildCrashWithLosers builds a crash with nLosers long-running
// transactions that never commit. The losers' operations run in two
// rounds — before and midway through the committed traffic — so their
// backchains span checkpoints and the SMOs the committed inserts force
// (splits inside the undo window). Losers touch strided reserved keys
// the committed traffic avoids, mirroring the key-disjointness 2PL
// guarantees.
func buildCrashWithLosers(t testing.TB, cfg engine.Config, nRows, txns, opsPerTxn, nLosers int, spec loserSpec, seed int64) (*engine.CrashState, oracle) {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle, nRows)
	if err := eng.Load(nRows, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	// Reserved keys: strided across the table so the losers' pages
	// spread (and later get evicted by redo traffic).
	perLoser := spec.updates + spec.deletes + spec.shrinks
	stride := uint64(nRows/(nLosers*perLoser+1)) + 1
	var nextReserved uint64
	reserved := make(map[uint64]bool)
	takeReserved := func() uint64 {
		if nextReserved >= uint64(nRows) {
			t.Fatalf("ran out of reserved keys (stride %d)", stride)
		}
		k := nextReserved
		nextReserved += stride
		reserved[k] = true
		return k
	}

	losers := make([]*tc.Session, nLosers)
	mgr := eng.NewSessionManager(0)
	for i := range losers {
		losers[i] = begin(t, mgr)
	}
	// nextLoserInsert stays far above the committed inserts' key range.
	nextLoserInsert := uint64(1) << 32
	loserRound := func(updates, inserts, deletes, shrinks int) {
		for _, txn := range losers {
			for u := 0; u < updates; u++ {
				k := takeReserved()
				if err := txn.Update(cfg.TableID, k, val(k, 999)); err != nil {
					t.Fatalf("loser update key %d: %v", k, err)
				}
			}
			for u := 0; u < inserts; u++ {
				k := nextLoserInsert
				nextLoserInsert++
				if err := txn.Insert(cfg.TableID, k, val(k, 999)); err != nil {
					t.Fatalf("loser insert key %d: %v", k, err)
				}
			}
			for u := 0; u < deletes; u++ {
				k := takeReserved()
				if err := txn.Delete(cfg.TableID, k); err != nil {
					t.Fatalf("loser delete key %d: %v", k, err)
				}
			}
			for u := 0; u < shrinks; u++ {
				k := takeReserved()
				if err := txn.Update(cfg.TableID, k, []byte("tiny")); err != nil {
					t.Fatalf("loser shrink key %d: %v", k, err)
				}
			}
		}
	}
	committedRound := func(n int) {
		nextKey := uint64(nRows) + uint64(eng.TC.Stats().Inserts)
		for i := 0; i < n; i++ {
			txn := begin(t, mgr)
			staged := make(map[uint64][]byte)
			for u := 0; u < opsPerTxn; u++ {
				if rng.Intn(3) == 0 {
					// Inserts at the right edge force leaf splits (SMO
					// records) inside the redo and undo windows.
					k := nextKey
					nextKey++
					v := val(k, i+1)
					if err := txn.Insert(cfg.TableID, k, v); err != nil {
						t.Fatalf("committed insert %d: %v", k, err)
					}
					staged[k] = v
					continue
				}
				k := uint64(rng.Intn(nRows))
				for reserved[k] {
					k = (k + 1) % uint64(nRows)
				}
				v := val(k, i+1)
				if err := txn.Update(cfg.TableID, k, v); err != nil {
					t.Fatalf("committed update %d: %v", k, err)
				}
				staged[k] = v
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			for k, v := range staged {
				om[k] = v
			}
			if (i+1)%25 == 0 {
				if err := eng.TC.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Round 1: half of each loser's work, then committed traffic (with
	// checkpoints, so the losers ride the active-transaction list), then
	// the rest of the losers' work, then more committed traffic.
	loserRound(spec.updates/2, spec.inserts/2, spec.deletes/2, spec.shrinks/2)
	committedRound(txns / 2)
	loserRound(spec.updates-spec.updates/2, spec.inserts-spec.inserts/2,
		spec.deletes-spec.deletes/2, spec.shrinks-spec.shrinks/2)
	committedRound(txns - txns/2)

	// Force the log so the losers' records survive; they never commit.
	eng.TC.SendEOSL()
	return eng.Crash(), om
}

// TestParallelUndoMatchesSerialOracle recovers the same multi-loser
// crash under every method with serial undo, then with parallel undo at
// several worker counts, and checks byte-identical outcomes: the
// committed state, the loser count, the CLR count, and the exact same
// appended record sequence, abort records included (every width plans
// and appends on the one sweep, so the log must not change — nor may it
// differ between two identical runs).
func TestParallelUndoMatchesSerialOracle(t *testing.T) {
	cfg := testConfig(300)
	spec := loserSpec{updates: 6, inserts: 3, deletes: 2, shrinks: 1}
	cs, om := buildCrashWithLosers(t, cfg, 2000, 120, 8, 4, spec, 17)

	for _, m := range Methods() {
		opt := DefaultOptions(cfg)
		sEng, sMet, err := Recover(cs, m, opt)
		if err != nil {
			t.Fatalf("%v serial: %v", m, err)
		}
		verifyRecovered(t, m, sEng, om)
		if sMet.LosersUndone != 4 {
			t.Fatalf("%v serial: LosersUndone = %d, want 4", m, sMet.LosersUndone)
		}
		serialLog := appendedLog(t, sEng, cs.Log.FlushedLSN())
		if n := int64(len(serialLog)); n != sMet.CLRsWritten+4 {
			t.Fatalf("%v serial: appended %d records, want %d CLRs + 4 aborts", m, n, sMet.CLRsWritten)
		}
		// Two identical runs append the identical sequence: the abort
		// order must not depend on map iteration.
		again, _, err := Recover(cs, m, opt)
		if err != nil {
			t.Fatalf("%v serial rerun: %v", m, err)
		}
		diffLogs(t, fmt.Sprintf("%v serial rerun", m), appendedLog(t, again, cs.Log.FlushedLSN()), serialLog)

		for _, uw := range []int{1, 2, 4} {
			popt := opt
			popt.RedoWorkers = 2
			popt.UndoWorkers = uw
			eng, met, err := Recover(cs, m, popt)
			if err != nil {
				t.Fatalf("%v undo workers=%d: %v", m, uw, err)
			}
			verifyRecovered(t, m, eng, om)
			diffLogs(t, fmt.Sprintf("%v undo workers=%d", m, uw), appendedLog(t, eng, cs.Log.FlushedLSN()), serialLog)
			if met.UndoWorkers != uw {
				t.Errorf("%v: UndoWorkers = %d, want %d", m, met.UndoWorkers, uw)
			}
			if met.LosersUndone != sMet.LosersUndone {
				t.Errorf("%v workers=%d: LosersUndone = %d, serial %d",
					m, uw, met.LosersUndone, sMet.LosersUndone)
			}
			if met.CLRsWritten != sMet.CLRsWritten {
				t.Errorf("%v workers=%d: CLRsWritten = %d, serial %d",
					m, uw, met.CLRsWritten, sMet.CLRsWritten)
			}
			// Deletes and shrinking updates must have taken the
			// structural barrier path; everything else is routed and
			// applied by the shard workers.
			if met.UndoBarriers == 0 {
				t.Errorf("%v workers=%d: no structural undo barriers", m, uw)
			}
			if met.UndoApplied+met.UndoBarriers != met.CLRsWritten {
				t.Errorf("%v workers=%d: UndoApplied %d + UndoBarriers %d != CLRsWritten %d",
					m, uw, met.UndoApplied, met.UndoBarriers, met.CLRsWritten)
			}
		}
	}
}

// TestParallelUndoPageLatchStress hammers the structural-undo page
// latch (run under -race in CI): delete- and shrink-heavy losers force
// many structural compensations — re-inserts that split, growing
// restores — while the remaining workers keep streaming non-structural
// CLR applications concurrently. The latch must park exactly one
// worker per structural step (never the whole pool, which is what the
// old global drain barrier did) and still reproduce the serial
// outcome byte for byte.
func TestParallelUndoPageLatchStress(t *testing.T) {
	cfg := testConfig(300)
	spec := loserSpec{updates: 4, inserts: 2, deletes: 10, shrinks: 6}
	const nLosers = 6
	cs, om := buildCrashWithLosers(t, cfg, 3000, 80, 6, nLosers, spec, 41)

	opt := DefaultOptions(cfg)
	sEng, sMet, err := Recover(cs, Log1, opt)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	verifyRecovered(t, Log1, sEng, om)
	serialLog := appendedLog(t, sEng, cs.Log.FlushedLSN())

	structural := int64(nLosers * (spec.deletes + spec.shrinks))
	for _, uw := range []int{1, 2, 4, 8} {
		popt := opt
		popt.RedoWorkers = 2
		popt.UndoWorkers = uw
		eng, met, err := Recover(cs, Log1, popt)
		if err != nil {
			t.Fatalf("undo workers=%d: %v", uw, err)
		}
		verifyRecovered(t, Log1, eng, om)
		if met.CLRsWritten != sMet.CLRsWritten {
			t.Errorf("workers=%d: CLRsWritten = %d, serial %d", uw, met.CLRsWritten, sMet.CLRsWritten)
		}
		diffLogs(t, fmt.Sprintf("workers=%d", uw), appendedLog(t, eng, cs.Log.FlushedLSN()), serialLog)
		if met.UndoBarriers != structural {
			t.Errorf("workers=%d: UndoBarriers = %d, want %d (every delete and shrink undo is structural)",
				uw, met.UndoBarriers, structural)
		}
		// The page-latch contract: one affected leaf, one parked worker
		// per structural step — a global drain would park uw each time.
		if met.BarrierWorkersPaused != met.UndoBarriers {
			t.Errorf("workers=%d: %d workers parked across %d structural steps; the page latch must park exactly one each",
				uw, met.BarrierWorkersPaused, met.UndoBarriers)
		}
	}
}

// TestParallelUndoRealIO exercises parallel undo against wall-clock IO
// on the file device: the shard workers overlap their leaf fetches, and
// the recovered state must still match the oracle.
func TestParallelUndoRealIO(t *testing.T) {
	cfg := testConfig(200)
	cfg.Device, cfg.Dir = engine.DeviceFile, t.TempDir()
	spec := loserSpec{updates: 12, inserts: 2, deletes: 1}
	cs, om := buildCrashWithLosers(t, cfg, 1500, 60, 8, 4, spec, 23)
	opt := DefaultOptions(cfg)
	for _, uw := range []int{1, 4} {
		popt := opt
		popt.RedoWorkers = 4
		popt.UndoWorkers = uw
		eng, met, err := Recover(cs, Log1, popt)
		if err != nil {
			t.Fatalf("undo workers=%d: %v", uw, err)
		}
		verifyRecovered(t, Log1, eng, om)
		if met.WallUndoTime <= 0 {
			t.Errorf("undo workers=%d: WallUndoTime not measured", uw)
		}
	}
}
