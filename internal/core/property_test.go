package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"logrec/internal/engine"
	"logrec/internal/tracker"
)

// TestQuickRecoveryEquivalence is the repository's central property
// test: for random mixed workloads (updates, inserts, deletes, aborts),
// random checkpoint placement, a random crash point and a random
// ∆-record variant, all five recovery methods must produce
// byte-identical post-recovery tables equal to the committed-state
// oracle, and the B-tree must satisfy every structural invariant.
func TestQuickRecoveryEquivalence(t *testing.T) {
	f := func(seed int64) bool { return quickRecoveryOne(t, seed) }
	cfgQ := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfgQ.MaxCount = 4
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Fatal(err)
	}
}

// quickRecoveryOne runs one seeded iteration of the recovery
// equivalence property; named so a failing seed can be replayed
// directly.
func quickRecoveryOne(t *testing.T, seed int64) bool {
	{
		rng := rand.New(rand.NewSource(seed))

		cfg := testConfig(64 + rng.Intn(512))
		cfg.DC.Tracker.Variant = tracker.Variant(rng.Intn(3))
		cfg.DC.Tracker.FlushBatch = 4 + rng.Intn(60)
		cfg.DC.Tracker.MaxDirty = 16 + rng.Intn(200)

		eng, err := engine.New(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		nRows := 300 + rng.Intn(1500)
		om := make(oracle, nRows)
		if err := eng.Load(nRows, func(k uint64) []byte {
			v := val(k, 0)
			om[k] = v
			return v
		}); err != nil {
			t.Log(err)
			return false
		}
		mgr := eng.NewSessionManager(0)

		nextKey := uint64(nRows)
		txns := 30 + rng.Intn(120)
		for i := 0; i < txns; i++ {
			txn := begin(t, mgr)
			type change struct {
				key uint64
				val []byte // nil means deleted
			}
			var staged []change
			touched := make(map[uint64]bool)
			nOps := 1 + rng.Intn(12)
			for u := 0; u < nOps; u++ {
				switch rng.Intn(10) {
				case 0, 1: // insert
					k := nextKey
					nextKey++
					v := val(k, i+1)
					if err := txn.Insert(cfg.TableID, k, v); err != nil {
						t.Logf("seed %d insert: %v", seed, err)
						return false
					}
					staged = append(staged, change{k, v})
					touched[k] = true
				case 2: // delete
					k := uint64(rng.Intn(nRows))
					if touched[k] {
						continue
					}
					if _, exists := om[k]; !exists {
						continue
					}
					if err := txn.Delete(cfg.TableID, k); err != nil {
						t.Logf("seed %d delete %d: %v", seed, k, err)
						return false
					}
					staged = append(staged, change{k, nil})
					touched[k] = true
				default: // update
					k := uint64(rng.Intn(nRows))
					if touched[k] {
						continue
					}
					if _, exists := om[k]; !exists {
						continue
					}
					v := val(k, i+1)
					if err := txn.Update(cfg.TableID, k, v); err != nil {
						t.Logf("seed %d update %d: %v", seed, k, err)
						return false
					}
					staged = append(staged, change{k, v})
					touched[k] = true
				}
			}
			if rng.Intn(8) == 0 {
				// Explicit abort: nothing lands in the oracle.
				if err := txn.Abort(); err != nil {
					t.Logf("seed %d abort: %v", seed, err)
					return false
				}
			} else {
				if err := txn.Commit(); err != nil {
					t.Logf("seed %d commit: %v", seed, err)
					return false
				}
				for _, c := range staged {
					if c.val == nil {
						delete(om, c.key)
					} else {
						om[c.key] = c.val
					}
				}
			}
			if rng.Intn(15) == 0 {
				if err := eng.TC.Checkpoint(); err != nil {
					t.Logf("seed %d checkpoint: %v", seed, err)
					return false
				}
			}
		}

		// Possibly leave 0-2 open transactions at the crash.
		for j := 0; j < rng.Intn(3); j++ {
			open := begin(t, mgr)
			for u := 0; u < rng.Intn(5)+1; u++ {
				k := uint64(rng.Intn(nRows))
				if _, exists := om[k]; !exists {
					continue
				}
				// May conflict with the other open txn: acceptable.
				_ = open.Update(cfg.TableID, k, []byte("OPEN-TXN-GARBAGE-xxxx"))
			}
			eng.TC.SendEOSL()
		}

		cs := eng.Crash()
		opt := DefaultOptions(cfg)

		var first map[uint64][]byte
		for _, m := range Methods() {
			rec, _, err := Recover(cs, m, opt)
			if err != nil {
				t.Logf("seed %d %v: %v", seed, m, err)
				return false
			}
			got := make(map[uint64][]byte)
			if err := rec.DC.Tree().Scan(func(k uint64, v []byte) error {
				got[k] = append([]byte(nil), v...)
				return nil
			}); err != nil {
				t.Logf("seed %d %v scan: %v", seed, m, err)
				return false
			}
			if err := rec.DC.Tree().CheckInvariants(); err != nil {
				t.Logf("seed %d %v invariants: %v", seed, m, err)
				return false
			}
			// Equal to the oracle.
			if len(got) != len(om) {
				t.Logf("seed %d %v: %d rows, oracle %d", seed, m, len(got), len(om))
				return false
			}
			for k, v := range om {
				if !bytes.Equal(got[k], v) {
					t.Logf("seed %d %v: key %d = %q, want %q", seed, m, k, got[k], v)
					return false
				}
			}
			// Identical across methods.
			if first == nil {
				first = got
			} else if fmt.Sprint(len(first)) != fmt.Sprint(len(got)) {
				t.Logf("seed %d %v: diverged from first method", seed, m)
				return false
			}
		}
		return true
	}
}

// TestQuickDoubleCrash stresses crash-during-recovery semantics: after
// recovering, crash again immediately (CLRs from undo now live in the
// log) and recover with a different method; state must be stable.
func TestQuickDoubleCrash(t *testing.T) {
	auditSkips(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// From caches smaller than the table, whose flushes give the
		// screens records to skip (and the audit skips to check), to
		// caches that hold all of it.
		cfg := testConfig(8 + rng.Intn(24))
		cs, om := buildCrash(t, cfg, 500+rng.Intn(1000), 40+rng.Intn(60), 8, 17, seed, true)
		mA := Methods()[rng.Intn(5)]
		mB := Methods()[rng.Intn(5)]
		engA, _, err := Recover(cs, mA, DefaultOptions(cfg))
		if err != nil {
			t.Logf("seed %d %v: %v", seed, mA, err)
			return false
		}
		csB := engA.Crash()
		engB, _, err := Recover(csB, mB, DefaultOptions(cfg))
		if err != nil {
			t.Logf("seed %d %v then %v: %v", seed, mA, mB, err)
			return false
		}
		got := make(map[uint64][]byte)
		if err := engB.DC.Tree().Scan(func(k uint64, v []byte) error {
			got[k] = append([]byte(nil), v...)
			return nil
		}); err != nil {
			t.Log(err)
			return false
		}
		if len(got) != len(om) {
			t.Logf("seed %d: %d rows after double crash, want %d", seed, len(got), len(om))
			return false
		}
		for k, v := range om {
			if !bytes.Equal(got[k], v) {
				t.Logf("seed %d: key %d mismatch after double crash", seed, k)
				return false
			}
		}
		return true
	}
	cfgQ := &quick.Config{MaxCount: 10}
	if testing.Short() {
		cfgQ.MaxCount = 3
	}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Fatal(err)
	}
}
