package logrec_test

import (
	"bytes"
	"fmt"
	"log"
	"testing"

	"logrec"
)

// TestPublicAPIEndToEnd exercises the exported surface exactly as the
// README shows it.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := logrec.DefaultConfig()
	cfg.CachePages = 256

	eng, err := logrec.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(5_000, func(k uint64) []byte {
		return []byte(fmt.Sprintf("value-%08d", k))
	}); err != nil {
		t.Fatal(err)
	}

	txn := eng.NewSessionManager(0).NewSession()
	for i := 0; i < 50; i++ {
		if err := txn.Begin(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 10; u++ {
			k := uint64((i*10 + u) % 5000)
			if err := txn.Update(cfg.TableID, k, []byte(fmt.Sprintf("upd-%03d-%05d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash := eng.Crash()

	for _, m := range logrec.Methods() {
		rec, met, err := logrec.Recover(crash, m, logrec.DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if met.Method != m {
			t.Fatalf("metrics method %v, want %v", met.Method, m)
		}
		v, found, err := rec.DC.Tree().Search(10)
		if err != nil || !found {
			t.Fatalf("%v: key 10 missing", m)
		}
		if !bytes.HasPrefix(v, []byte("upd-")) {
			t.Fatalf("%v: key 10 = %q, want an updated value", m, v)
		}
	}
}

// TestExperimentAPI exercises the harness re-exports.
func TestExperimentAPI(t *testing.T) {
	cfg := logrec.DefaultExperimentConfig().Scaled(40).WithCacheFraction(0.08)
	res, err := logrec.BuildCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mets, err := logrec.RunAll(res, logrec.DefaultOptions(cfg.Engine))
	if err != nil {
		t.Fatal(err)
	}
	if len(mets) != 5 {
		t.Fatalf("%d methods", len(mets))
	}
	if mets[logrec.Log0].RedoTotal < mets[logrec.Log2].RedoTotal {
		t.Fatal("Log0 beat Log2")
	}
	single, err := logrec.RunRecovery(res, logrec.SQL2, logrec.DefaultOptions(cfg.Engine))
	if err != nil {
		t.Fatal(err)
	}
	if single.Method != logrec.SQL2 {
		t.Fatal("wrong method in metrics")
	}
}

// TestDeltaVariantsExported checks the Appendix D variant knob via the
// public API.
func TestDeltaVariantsExported(t *testing.T) {
	for _, v := range []logrec.DeltaVariant{logrec.DeltaStandard, logrec.DeltaPerfect, logrec.DeltaReduced} {
		cfg := logrec.DefaultExperimentConfig().Scaled(40).WithCacheFraction(0.08)
		cfg.Engine.DC.Tracker.Variant = v
		res, err := logrec.BuildCrash(cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if _, err := logrec.RunRecovery(res, logrec.Log1, logrec.DefaultOptions(cfg.Engine)); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

// Example runs the engine end to end: load a table, update a row in a
// committed session transaction, checkpoint, leave a second transaction
// in flight, crash, and recover the crash by every method. Each method
// keeps the committed row and rolls the in-flight one back.
func Example() {
	cfg := logrec.DefaultConfig()
	cfg.CachePages = 256
	eng, err := logrec.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Bulk load, then the initial checkpoint.
	if err := eng.Load(1_000, func(k uint64) []byte { return []byte(fmt.Sprintf("row-%04d", k)) }); err != nil {
		log.Fatal(err)
	}

	mgr := eng.NewSessionManager(0)
	sess := mgr.NewSession()
	if err := sess.Begin(); err != nil {
		log.Fatal(err)
	}
	if err := sess.Update(cfg.TableID, 7, []byte("committed")); err != nil {
		log.Fatal(err)
	}
	if err := sess.Commit(); err != nil { // durable once Commit returns
		log.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// A transaction still open at the crash: recovery rolls it back.
	if err := sess.Begin(); err != nil {
		log.Fatal(err)
	}
	if err := sess.Update(cfg.TableID, 8, []byte("in flight")); err != nil {
		log.Fatal(err)
	}
	eng.TC.SendEOSL() // its record reaches the stable log anyway

	crash := eng.Crash()
	for _, m := range logrec.Methods() {
		rec, met, err := logrec.Recover(crash, m, logrec.DefaultOptions(cfg))
		if err != nil {
			log.Fatal(err)
		}
		row7, _, _ := rec.DC.Read(cfg.TableID, 7)
		row8, _, _ := rec.DC.Read(cfg.TableID, 8)
		fmt.Printf("%v: key 7 = %s, key 8 = %s, losers undone %d\n", m, row7, row8, met.LosersUndone)
	}
	// Output:
	// Log0: key 7 = committed, key 8 = row-0008, losers undone 1
	// Log1: key 7 = committed, key 8 = row-0008, losers undone 1
	// SQL1: key 7 = committed, key 8 = row-0008, losers undone 1
	// Log2: key 7 = committed, key 8 = row-0008, losers undone 1
	// SQL2: key 7 = committed, key 8 = row-0008, losers undone 1
}
