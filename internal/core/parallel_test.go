package core

import (
	"math/rand"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/storage"
)

// buildCrashWithSplits drives a mixed update+insert workload so the
// redo window contains SMO records: parallel redo must barrier on them
// and still reproduce the committed state exactly.
func buildCrashWithSplits(t *testing.T, cfg engine.Config, nRows, txns, opsPerTxn, ckptEvery int, seed int64) (*engine.CrashState, oracle) {
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
	nextKey := uint64(nRows)
	mgr := eng.NewSessionManager(0)
	for i := 0; i < txns; i++ {
		txn := begin(t, mgr)
		staged := make(map[uint64][]byte)
		for u := 0; u < opsPerTxn; u++ {
			if rng.Intn(3) == 0 {
				// Insert a fresh key: sequential inserts at the right
				// edge force leaf splits (SMO records) mid-window.
				k := nextKey
				nextKey++
				v := val(k, i+1)
				if err := txn.Insert(cfg.TableID, k, v); err != nil {
					t.Fatalf("txn %d insert: %v", i, err)
				}
				staged[k] = v
				continue
			}
			k := uint64(rng.Intn(nRows))
			v := val(k, i+1)
			if err := txn.Update(cfg.TableID, k, v); err != nil {
				t.Fatalf("txn %d update: %v", i, err)
			}
			staged[k] = v
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for k, v := range staged {
			om[k] = v
		}
		if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A loser transaction so parallel runs also feed the undo pass.
	txn := begin(t, mgr)
	for u := 0; u < opsPerTxn; u++ {
		k := uint64(rng.Intn(nRows))
		if err := txn.Update(cfg.TableID, k, []byte("UNCOMMITTED-GARBAGE-value")); err != nil {
			t.Fatal(err)
		}
	}
	eng.TC.SendEOSL()
	return eng.Crash(), om
}

// TestParallelRedoMatchesOracle recovers the same crash under every
// method at several worker counts and checks each run reproduces the
// serial result: the committed state, a well-formed tree, and the same
// redo-window record count.
func TestParallelRedoMatchesOracle(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrashWithSplits(t, cfg, 2000, 150, 8, 40, 7)
	opt := DefaultOptions(cfg)
	auditSkips(t) // the serial runs; routed passes are not audited

	for _, m := range Methods() {
		serialOpt := opt
		eng, serialMet, err := Recover(cs, m, serialOpt)
		if err != nil {
			t.Fatalf("%v serial: %v", m, err)
		}
		verifyRecovered(t, m, eng, om)

		for _, workers := range []int{1, 2, 4} {
			popt := opt
			popt.RedoWorkers = workers
			eng, met, err := Recover(cs, m, popt)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			verifyRecovered(t, m, eng, om)
			if met.RedoWorkers != workers {
				t.Errorf("%v: RedoWorkers = %d, want %d", m, met.RedoWorkers, workers)
			}
			if met.RedoRecords != serialMet.RedoRecords {
				t.Errorf("%v workers=%d: RedoRecords = %d, serial saw %d",
					m, workers, met.RedoRecords, serialMet.RedoRecords)
			}
			if met.Applied == 0 {
				t.Errorf("%v workers=%d: no records applied", m, workers)
			}
			if m.IsLogical() {
				// dcPass replays SMOs before redo starts; the pipeline
				// never barriers.
				if met.SMOBarriers != 0 {
					t.Errorf("%v workers=%d: %d SMO barriers in logical redo",
						m, workers, met.SMOBarriers)
				}
				continue
			}
			// SQL family: the split-heavy window must have replayed SMOs
			// under barriers, each pausing at most the shards owning the
			// SMO's pages (TestBarrierShardScope checks the scoping
			// precisely).
			if met.SMOBarriers == 0 {
				t.Errorf("%v workers=%d: no SMO barriers in a split-heavy window", m, workers)
			}
			if met.BarrierWorkersPaused <= 0 || met.BarrierWorkersPaused > met.SMOBarriers*int64(workers) {
				t.Errorf("%v workers=%d: %d worker pauses over %d barriers out of range",
					m, workers, met.BarrierWorkersPaused, met.SMOBarriers)
			}
		}
	}
}

// TestBarrierShardScope drives the worker pool's pause primitive
// directly: a barrier parks only the workers that own its pages.
func TestBarrierShardScope(t *testing.T) {
	eng, err := engine.New(testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(100, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	sr := &shardRun{r: &run{}, id: 0, d: eng.DC}
	pool := newShardedPool(4)

	// On shard 0, pages 8 and 12 both map to worker 0; 5 maps to worker 1.
	release, paused := pool.pause(sr, []storage.PageID{8, 12})
	release()
	if paused != 1 {
		t.Errorf("pause({8,12}): paused %d workers, want 1 (one worker)", paused)
	}
	release, paused = pool.pause(sr, []storage.PageID{8, 5})
	release()
	if paused != 2 {
		t.Errorf("pause({8,5}): paused %d workers, want 2", paused)
	}
	if _, err := pool.finish(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelRedoRealIO exercises the wall-clock IO path: the pool
// releases its latch across miss reads, on the file device workers
// overlap them in wall-clock time, and the recovered state must still
// match the oracle.
func TestParallelRedoRealIO(t *testing.T) {
	cfg := testConfig(300)
	cfg.Device, cfg.Dir = engine.DeviceFile, t.TempDir()
	cs, om := buildCrashWithSplits(t, cfg, 1500, 80, 8, 30, 11)
	opt := DefaultOptions(cfg)
	for _, m := range []Method{Log0, Log2, SQL1} {
		for _, workers := range []int{1, 4} {
			popt := opt
			popt.RedoWorkers = workers
			eng, met, err := Recover(cs, m, popt)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			verifyRecovered(t, m, eng, om)
			if met.WallRedoTime <= 0 {
				t.Errorf("%v workers=%d: WallRedoTime not measured", m, workers)
			}
		}
	}
}
