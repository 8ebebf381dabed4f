package core

import (
	"testing"

	"logrec/internal/dc"
	"logrec/internal/engine"
	"logrec/internal/tracker"
	"logrec/internal/wal"
)

func TestMethodPredicates(t *testing.T) {
	cases := []struct {
		m                              Method
		logical, usesDPT, usesPrefetch bool
	}{
		{Log0, true, false, false},
		{Log1, true, true, false},
		{Log2, true, true, true},
		{SQL1, false, true, false},
		{SQL2, false, true, true},
	}
	for _, c := range cases {
		if c.m.IsLogical() != c.logical || c.m.UsesDPT() != c.usesDPT || c.m.UsesPrefetch() != c.usesPrefetch {
			t.Fatalf("%v predicates wrong", c.m)
		}
		if c.m.String() == "" {
			t.Fatalf("%v has no name", c.m)
		}
	}
	if len(Methods()) != 5 {
		t.Fatal("Methods() incomplete")
	}
}

func TestTxnTableLosers(t *testing.T) {
	tt := newTxnTable()
	tt.seed([]wal.ActiveTxn{{TxnID: 1, LastLSN: 100}, {TxnID: 2, LastLSN: 110}})
	// Txn 1 commits during the scan; txn 3 appears and stays open.
	tt.note(&wal.UpdateRec{TxnID: 3, PrevLSN: 0}, 200)
	tt.note(&wal.CommitRec{TxnID: 1}, 210)
	tt.note(&wal.UpdateRec{TxnID: 3, PrevLSN: 200}, 220)
	losers := tt.losers()
	if len(losers) != 2 {
		t.Fatalf("losers = %v", losers)
	}
	if losers[2] != 110 {
		t.Fatalf("seeded loser lastLSN = %v, want 110", losers[2])
	}
	if losers[3] != 220 {
		t.Fatalf("scanned loser lastLSN = %v, want 220", losers[3])
	}
	// System records (txn 0) are ignored.
	tt.note(&wal.UpdateRec{TxnID: 0}, 300)
	if _, ok := tt.losers()[0]; ok {
		t.Fatal("system txn tracked as loser")
	}
}

// TestPrefetchStrategiesEquivalentResults: both Log2 prefetch sources
// must recover identical state; only timing differs.
func TestPrefetchStrategiesEquivalentResults(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrash(t, cfg, 2000, 100, 10, 30, 13, false)
	for _, s := range []PrefetchStrategy{PrefetchPFList, PrefetchDPTOrder} {
		opt := DefaultOptions(cfg)
		opt.PrefetchStrategy = s
		eng, met, err := Recover(cs, Log2, opt)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		verifyRecovered(t, Log2, eng, om)
		if met.PrefetchPages == 0 {
			t.Fatalf("%v issued no prefetch", s)
		}
	}
	if PrefetchPFList.String() == PrefetchDPTOrder.String() {
		t.Fatal("strategy names collide")
	}
}

// TestIndexPreloadToggle: disabling preload must still recover
// correctly, loading index pages on demand instead.
func TestIndexPreloadToggle(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrash(t, cfg, 2000, 100, 10, 30, 17, false)
	opt := DefaultOptions(cfg)
	opt.IndexPreload = false
	eng, met, err := Recover(cs, Log2, opt)
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, Log2, eng, om)
	if met.IndexPageFetches == 0 {
		t.Fatal("no index fetches recorded")
	}
}

// TestRecoverOptionsDefaulting: zero-valued options are filled from the
// crash config — by the one withDefaults, whose literals are
// DefaultOptions' — and a standby resolves its options the same way, so
// its per-shard feed is scanAhead deep, not unbuffered.
func TestRecoverOptionsDefaulting(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrash(t, cfg, 1000, 50, 10, 20, 19, false)
	eng, _, err := Recover(cs, Log1, Options{DCConfig: cfg.DC})
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, Log1, eng, om)

	want := DefaultOptions(cfg)
	want.IndexPreload, want.DCConfig = false, dc.Config{}
	if got := (Options{RedoWorkers: -1, UndoWorkers: -3}).withDefaults(cfg); got != want {
		t.Errorf("withDefaults(zero) = %+v, want DefaultOptions' tunables %+v", got, want)
	}

	scfg := testConfig(64)
	scfg.Shards, scfg.Standby = 2, true
	standby, err := engine.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer(standby)
	if rp.r.opt != want {
		t.Errorf("standby options = %+v, want %+v", rp.r.opt, want)
	}
	queues := rp.r.newQueues()
	if len(queues) != 2 {
		t.Fatalf("standby has %d feeds, want one per shard", len(queues))
	}
	for i, q := range queues {
		if got := cap(q) * demuxBatch; got != scanAhead {
			t.Errorf("standby feed %d holds %d records, want scanAhead = %d", i, got, scanAhead)
		}
	}
}

// TestRecoverSmallerCacheThanCrash: recovery may run with a different
// buffer pool size (a replica box with less memory).
func TestRecoverSmallerCacheThanCrash(t *testing.T) {
	cfg := testConfig(400)
	cs, om := buildCrash(t, cfg, 2000, 100, 10, 30, 23, false)
	opt := DefaultOptions(cfg)
	opt.CachePages = 64
	for _, m := range Methods() {
		eng, _, err := Recover(cs, m, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyRecovered(t, m, eng, om)
	}
}

// TestTailFallback verifies §4.3: records past the last ∆ record run in
// basic mode and are counted as tail; killing the tail (ForceEmit
// before crash) zeroes the count.
func TestTailFallback(t *testing.T) {
	cfg := testConfig(300)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle)
	if err := eng.Load(1500, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	for i := 0; i < 60; i++ {
		txn := begin(t, mgr)
		staged := map[uint64][]byte{}
		for u := 0; u < 10; u++ {
			k := uint64((i*31 + u*7) % 1500)
			v := val(k, i+1)
			if err := txn.Update(cfg.TableID, k, v); err != nil {
				t.Fatal(err)
			}
			staged[k] = v
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for k, v := range staged {
			om[k] = v
		}
		if i == 20 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Updates since the last ∆ record form the tail.
	cs := eng.Crash()
	_, metWithTail, err := Recover(cs, Log1, DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if metWithTail.TailRecords == 0 {
		t.Fatal("expected a non-empty tail")
	}

	// Same workload, but close the interval right before the crash.
	eng2, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Load(1500, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	mgr2 := eng2.NewSessionManager(0)
	for i := 0; i < 60; i++ {
		txn := begin(t, mgr2)
		for u := 0; u < 10; u++ {
			k := uint64((i*31 + u*7) % 1500)
			if err := txn.Update(cfg.TableID, k, val(k, i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			if err := eng2.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng2.DC.Recorder().ForceEmit()
	eng2.TC.SendEOSL()
	cs2 := eng2.Crash()
	_, metNoTail, err := Recover(cs2, Log1, DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if metNoTail.TailRecords != 0 {
		t.Fatalf("tail = %d after ForceEmit, want 0", metNoTail.TailRecords)
	}
}

// TestPerfectVariantScreensAtLeastAsWell: the Appendix D.1 perfect DPT
// must never admit more fetches than the standard one on the same
// workload randomness.
func TestPerfectVariantScreensAtLeastAsWell(t *testing.T) {
	run := func(v tracker.Variant) *Metrics {
		cfg := testConfig(300)
		cfg.DC.Tracker.Variant = v
		cs, _ := buildCrash(t, cfg, 2000, 120, 10, 30, 31, false)
		opt := DefaultOptions(cfg)
		_, met, err := Recover(cs, Log1, opt)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	std := run(tracker.DeltaStandard)
	per := run(tracker.DeltaPerfect)
	if per.DataPageFetches > std.DataPageFetches {
		t.Fatalf("perfect fetched %d > standard %d", per.DataPageFetches, std.DataPageFetches)
	}
}

// TestRecoverUncheckpointedEngine: a crash before any checkpoint scans
// from the log start.
func TestRecoverUncheckpointedEngine(t *testing.T) {
	cfg := testConfig(300)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle)
	// Load takes the initial checkpoint; to simulate "no checkpoint",
	// use the raw DC path: load, enable logging, no Checkpoint call.
	if err := eng.DC.BulkLoad(500, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	eng.DC.StartLogging()
	mgr := eng.NewSessionManager(0)
	txn := begin(t, mgr)
	if err := txn.Update(cfg.TableID, 5, []byte("no-ckpt-update-value")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	om[5] = []byte("no-ckpt-update-value")
	cs := eng.Crash()
	if cs.LastEndCkpt != wal.NilLSN {
		t.Fatal("unexpected master record")
	}
	for _, m := range Methods() {
		rec, _, err := Recover(cs, m, DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyRecovered(t, m, rec, om)
	}
}
