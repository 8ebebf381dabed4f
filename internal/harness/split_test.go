package harness

import (
	"fmt"
	"testing"

	"logrec/internal/core"
	"logrec/internal/engine"
)

// TestRangeSplitMigrationSurvivesCrash drives the range-split
// migration on a live 2-shard engine, keeps updating across the moved
// boundary, crashes, and checks that recovery rebuilds both the rows
// and the routing table — with the split inside the redo window (its
// ShardMapRec replays) and behind a checkpoint (the route snapshot in
// the end-checkpoint record carries it).
func TestRangeSplitMigrationSurvivesCrash(t *testing.T) {
	for _, ckptAfterSplit := range []bool{false, true} {
		name := "in-window"
		if ckptAfterSplit {
			name = "checkpointed"
		}
		t.Run(name, func(t *testing.T) {
			const rows = 400
			cfg := engine.DefaultConfig()
			cfg.Shards = 2
			cfg.KeySpan = rows
			cfg.CachePages = 128
			eng, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make(map[uint64][]byte, rows)
			val := func(k uint64, gen int) []byte { return []byte(fmt.Sprintf("v%d-%06d", gen, k)) }
			if err := eng.Load(rows, func(k uint64) []byte {
				oracle[k] = val(k, 0)
				return val(k, 0)
			}); err != nil {
				t.Fatal(err)
			}
			mgr := eng.NewSessionManager(0)
			sess := mgr.NewSession()

			update := func(keys ...uint64) {
				t.Helper()
				if err := sess.Begin(); err != nil {
					t.Fatal(err)
				}
				for _, k := range keys {
					if err := sess.Update(cfg.TableID, k, val(k, 1)); err != nil {
						t.Fatal(err)
					}
					oracle[k] = val(k, 1)
				}
				if err := sess.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			update(5, 60, 150, 350)

			// Shard 0 owns [0, 200); split at 120 and hand [120, 200) to
			// shard 1.
			const at = 120
			if got := eng.Set.Locate(at); got != 0 {
				t.Fatalf("pre-split owner of %d = %d, want 0", at, got)
			}
			if err := mgr.SplitRange(cfg.TableID, at, 1); err != nil {
				t.Fatal(err)
			}
			if got := eng.Set.Locate(at); got != 1 {
				t.Fatalf("post-split owner of %d = %d, want 1", at, got)
			}
			if got := eng.Set.Locate(at - 1); got != 0 {
				t.Fatalf("post-split owner of %d = %d, want 0", at-1, got)
			}
			if eng.TC.Stats().RangeSplits != 1 {
				t.Fatalf("RangeSplits = %d, want 1", eng.TC.Stats().RangeSplits)
			}
			// Reads and updates keep working across the moved boundary.
			update(119, 120, 121, 180)
			if err := sess.Begin(); err != nil {
				t.Fatal(err)
			}
			if v, found, err := sess.Read(cfg.TableID, 150); err != nil || !found || string(v) != string(oracle[150]) {
				t.Fatalf("post-split read of 150: found=%v v=%q err=%v", found, v, err)
			}
			if err := sess.Commit(); err != nil {
				t.Fatal(err)
			}

			if ckptAfterSplit {
				if err := mgr.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			update(121, 122, 190)

			cs := eng.Crash()
			rec, met, err := core.Recover(cs, core.Log1, core.DefaultOptions(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(rec, oracle); err != nil {
				t.Fatalf("recovered state wrong: %v", err)
			}
			if got := rec.Set.Locate(at); got != 1 {
				t.Fatalf("recovered owner of %d = %d, want 1", at, got)
			}
			if got := rec.Set.Locate(at - 1); got != 0 {
				t.Fatalf("recovered owner of %d = %d, want 0", at-1, got)
			}
			if !ckptAfterSplit && met.RouteChanges != 1 {
				t.Fatalf("RouteChanges = %d, want 1 (split inside redo window)", met.RouteChanges)
			}
			// The moved rows physically live on shard 1.
			if _, found, _ := rec.Set.At(1).Read(cfg.TableID, 150); !found {
				t.Fatal("moved key 150 not on shard 1 after recovery")
			}
			if _, found, _ := rec.Set.At(0).Read(cfg.TableID, 150); found {
				t.Fatal("moved key 150 still on shard 0 after recovery")
			}
		})
	}
}
