package core

import (
	"bytes"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/tracker"
)

// The end of stable log is exclusive: wal.Log.Flush returns one past the
// last stable byte, so a record whose LSN equals eLSN (or an FW-LSN or
// TC-LSN sampled from it) is the first record that is NOT stable. The
// two tests below put a record at exactly that offset.

var deltaVariants = []tracker.Variant{tracker.DeltaStandard, tracker.DeltaPerfect, tracker.DeltaReduced}

// stableEndEngine loads 500 rows into a fully cached engine with the
// lazywriter off, so the only page flushes are the ones a test issues,
// and opens it for sessions.
func stableEndEngine(t *testing.T, v tracker.Variant) (*engine.Engine, *tc.SessionManager) {
	t.Helper()
	cfg := testConfig(300)
	cfg.DC.Tracker.Variant = v
	cfg.DC.CleanerTarget = 0
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(500, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	return eng, eng.NewSessionManager(0)
}

func commitUpdate(t *testing.T, eng *engine.Engine, mgr *tc.SessionManager, key uint64, v []byte) {
	t.Helper()
	txn := begin(t, mgr)
	if err := txn.Update(eng.Cfg.TableID, key, v); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// flushCache writes every dirty page through the pool's WAL check, the
// leaf owning the test's key among them.
func flushCache(t *testing.T, eng *engine.Engine) {
	t.Helper()
	if err := eng.DC.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// recoveredValue recovers cs with m and returns the value under key.
func recoveredValue(t *testing.T, cs *engine.CrashState, m Method, key uint64) []byte {
	t.Helper()
	rec, _, err := Recover(cs, m, DefaultOptions(cs.Cfg))
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	got, found, err := rec.DC.Tree().Search(key)
	if err != nil || !found {
		t.Fatalf("%v: search %d: found=%v err=%v", m, key, found, err)
	}
	return got
}

// TestNoFlushAheadOfStableEnd: an uncommitted update whose record starts
// exactly at eLSN is not stable, so flushing its page must force the
// log first — otherwise the crash keeps the page and loses the record
// that would undo it.
func TestNoFlushAheadOfStableEnd(t *testing.T) {
	for _, v := range deltaVariants {
		eng, mgr := stableEndEngine(t, v)
		commitUpdate(t, eng, mgr, 7, val(7, 1))
		eng.TC.SendEOSL()
		stable := eng.Log.FlushedLSN()
		if stable != eng.Log.EndLSN() {
			t.Fatalf("log not fully stable: flushed %v end %v", stable, eng.Log.EndLSN())
		}
		loser := begin(t, mgr)
		if err := loser.Update(eng.Cfg.TableID, 300, []byte("UNCOMMITTED-at-the-stable-end")); err != nil {
			t.Fatal(err)
		}
		if loser.Txn().FirstLSN() != stable {
			t.Fatalf("loser's record at %v, want it exactly at eLSN %v", loser.Txn().FirstLSN(), stable)
		}
		flushCache(t, eng)
		if eng.Log.FlushedLSN() <= stable {
			t.Errorf("%v: page carrying the record at eLSN %v was written with no log force", v, stable)
		}
		cs := eng.Crash()
		for _, m := range Methods() {
			if got := recoveredValue(t, cs, m, 300); !bytes.Equal(got, val(300, 0)) {
				t.Errorf("%v/%v: key 300 = %q, want the loaded %q: an uncommitted update survived the crash", v, m, got, val(300, 0))
			}
		}
	}
}

// TestUpdateAtFWLSNAfterFlush: a page is flushed as the first write of a
// ∆/BW interval (FW-LSN = the stable end) and then updated by the record
// that starts exactly at FW-LSN. The flush cannot have captured that
// update, so DPT construction must keep the page, or Log1 recovers a
// stale row.
func TestUpdateAtFWLSNAfterFlush(t *testing.T) {
	for _, v := range deltaVariants {
		eng, mgr := stableEndEngine(t, v)
		commitUpdate(t, eng, mgr, 300, val(300, 1))
		commitUpdate(t, eng, mgr, 10, val(10, 1))
		eng.DC.Recorder().ForceEmit()

		commitUpdate(t, eng, mgr, 301, val(301, 2)) // same leaf as 300
		fw := eng.TC.SendEOSL()
		flushCache(t, eng)

		txn := begin(t, mgr)
		want := val(300, 3)
		if err := txn.Update(eng.Cfg.TableID, 300, want); err != nil {
			t.Fatal(err)
		}
		if txn.Txn().FirstLSN() != fw {
			t.Fatalf("update at %v, want it exactly at FW-LSN %v", txn.Txn().FirstLSN(), fw)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		commitUpdate(t, eng, mgr, 11, val(11, 3))
		eng.DC.Recorder().ForceEmit()

		commitUpdate(t, eng, mgr, 12, val(12, 4))
		eng.DC.Recorder().ForceEmit()

		cs := eng.Crash()
		for _, m := range Methods() {
			if got := recoveredValue(t, cs, m, 300); !bytes.Equal(got, want) {
				t.Errorf("%v/%v: key 300 = %q, want the committed %q", v, m, got, want)
			}
		}
	}
}

// TestUnforcedAbortSurvivesCrash: Session.Abort forces neither its CLRs
// nor its abort record. A crash right after it finds the transaction's
// forced updates with no end, so every method undoes it as a loser, one
// CLR per update; once a later force covers the abort, recovery has
// nothing left to undo.
func TestUnforcedAbortSurvivesCrash(t *testing.T) {
	keys := []uint64{10, 200, 400}
	for _, forceAfter := range []bool{false, true} {
		name := "crash-after-abort"
		if forceAfter {
			name = "abort-forced"
		}
		t.Run(name, func(t *testing.T) {
			eng, mgr := stableEndEngine(t, tracker.DeltaStandard)
			om := make(oracle, 500)
			for k := uint64(0); k < 500; k++ {
				om[k] = val(k, 0)
			}
			txn := begin(t, mgr)
			for _, k := range keys {
				if err := txn.Update(eng.Cfg.TableID, k, val(k, 1)); err != nil {
					t.Fatal(err)
				}
			}
			forced := eng.TC.SendEOSL()
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			if got := eng.Log.FlushedLSN(); got != forced {
				t.Fatalf("the abort moved the stable log end from %v to %v", forced, got)
			}
			wantLosers, wantCLRs := 1, int64(len(keys))
			if forceAfter {
				eng.TC.SendEOSL()
				wantLosers, wantCLRs = 0, 0
			}
			cs := eng.Crash()
			for _, m := range Methods() {
				rec, met, err := Recover(cs, m, DefaultOptions(cs.Cfg))
				if err != nil {
					t.Fatalf("%v: %v", m, err)
				}
				verifyRecovered(t, m, rec, om)
				if met.LosersUndone != wantLosers || met.CLRsWritten != wantCLRs {
					t.Errorf("%v: %d losers undone with %d CLRs, want %d with %d",
						m, met.LosersUndone, met.CLRsWritten, wantLosers, wantCLRs)
				}
			}
		})
	}
}
