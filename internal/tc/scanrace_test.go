// Range scans racing range migrations. Session.ScanRange holds the
// planes of every shard its range overlaps, so a scan straddling a
// shard boundary must observe either the committed pre-image or the
// committed post-image of any concurrent migration or transaction —
// never a torn mixture: no missing keys, no duplicates, no mix of two
// writers' transactions. These tests hammer exactly that under -race
// with explicit SplitRange calls: one flipping a boundary inside the
// scanned range, one moving a hot slice back and forth under
// full-table scans.
package tc_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// TestScanRangeAtomicAcrossSplitRange scans [900,1200] — straddling
// the 1024 boundary of a 4×1024 key space — while a splitter flips the
// ownership of [1100,...] between shards and writers rewrite the whole
// range transactionally. Every successful scan must see the full key
// sequence with one writer's tag throughout.
func TestScanRangeAtomicAcrossSplitRange(t *testing.T) {
	const (
		rows     = 4096
		lo, hi   = uint64(900), uint64(1200)
		duration = 800 * time.Millisecond
	)
	cfg := engine.DefaultConfig()
	cfg.Shards = 4
	cfg.KeySpan = rows
	cfg.CachePages = 512
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte("tag-initial")
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		scans    atomic.Int64
		splits   atomic.Int64
		rewrites atomic.Int64
	)

	// Writer: rewrite the whole scanned range in one transaction with a
	// per-txn tag; abort and retry on conflicts with scanners.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := mgr.NewSession()
		for gen := 0; !stop.Load(); gen++ {
			tag := []byte(fmt.Sprintf("tag-%06d", gen))
			if err := sess.Begin(); err != nil {
				t.Error(err)
				return
			}
			failed := false
			for k := lo; k <= hi; k++ {
				if err := sess.Update(cfg.TableID, k, tag); err != nil {
					if !errors.Is(err, tc.ErrLockConflict) {
						t.Error(err)
						return
					}
					failed = true
					break
				}
			}
			if failed {
				if err := sess.Abort(); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(50 * time.Microsecond)
				continue
			}
			if err := sess.Commit(); err != nil {
				t.Error(err)
				return
			}
			rewrites.Add(1)
		}
	}()

	// Splitter: flip ownership of the range's tail between shards so
	// the scanned range keeps changing owner mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		targets := []wal.ShardID{1, 2, 3, 0}
		for i := 0; !stop.Load(); i++ {
			to := targets[i%len(targets)]
			if err := mgr.SplitRange(cfg.TableID, 1100, to); err != nil {
				// The migration's system transaction row-locks the range
				// it moves; a writer holding any of those rows wins
				// (no-wait locking) and the split retries next round.
				if !errors.Is(err, tc.ErrLockConflict) {
					t.Error(err)
					return
				}
			} else {
				splits.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Scanners: each successful scan must be complete and single-tag.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := mgr.NewSession()
			for !stop.Load() {
				if err := sess.Begin(); err != nil {
					t.Error(err)
					return
				}
				var keys []uint64
				var tags []string
				err := sess.ScanRange(cfg.TableID, lo, hi, nil, func(k uint64, v []byte) error {
					keys = append(keys, k)
					tags = append(tags, string(v))
					return nil
				})
				if err != nil {
					if !errors.Is(err, tc.ErrLockConflict) {
						t.Error(err)
						return
					}
					if err := sess.Abort(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := sess.Commit(); err != nil {
					t.Error(err)
					return
				}
				if len(keys) != int(hi-lo+1) {
					t.Errorf("torn range: scan saw %d keys, want %d", len(keys), hi-lo+1)
					return
				}
				for i, k := range keys {
					if k != lo+uint64(i) {
						t.Errorf("torn range: position %d has key %d, want %d", i, k, lo+uint64(i))
						return
					}
					if tags[i] != tags[0] {
						t.Errorf("torn transaction: key %d has tag %q, first key %q", k, tags[i], tags[0])
						return
					}
				}
				scans.Add(1)
			}
		}()
	}

	// At least duration, and on a machine slow enough that one side has
	// not got a turn yet (-race next to six other packages), until each
	// has: the writer no longer yields before its commit force, so
	// nothing in the engine hands the scanners a turn.
	exercised := func() bool { return scans.Load() > 0 && splits.Load() > 0 && rewrites.Load() > 0 }
	time.Sleep(duration)
	for deadline := time.Now().Add(10 * time.Second); !exercised() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if !exercised() {
		t.Fatalf("race unexercised: %d scans, %d splits, %d rewrites",
			scans.Load(), splits.Load(), rewrites.Load())
	}
	t.Logf("%d complete scans raced %d splits and %d range rewrites",
		scans.Load(), splits.Load(), rewrites.Load())
}

// migrator moves the key slice [lo, hi] back and forth between two
// shards with explicit SplitRange calls while the test's sessions run.
// A migration refused on a lock conflict (a session holds a row in the
// slice) is retried; any other error fails the test.
type migrator struct {
	stop    atomic.Bool
	done    chan struct{}
	moved   atomic.Int64
	refused atomic.Int64
}

// startMigrator cuts a routing boundary after hi, so each move relocates
// exactly [lo, hi], and starts moving the slice between its owner and
// shard to. Stop it with halt before the engine crashes or the test ends.
func startMigrator(t *testing.T, mgr *tc.SessionManager, table wal.TableID, lo, hi uint64, to wal.ShardID) *migrator {
	t.Helper()
	set := mgr.TC().Shards()
	_, _, home := set.RangeOf(lo)
	_, _, above := set.RangeOf(hi + 1)
	if err := mgr.SplitRange(table, hi+1, above); err != nil { // a boundary, no rows moved
		t.Fatal(err)
	}
	m := &migrator{done: make(chan struct{})}
	go func() {
		defer close(m.done)
		for !m.stop.Load() {
			err := mgr.SplitRange(table, lo, to)
			switch {
			case err == nil:
				m.moved.Add(1)
				to, home = home, to
			case errors.Is(err, tc.ErrLockConflict):
				m.refused.Add(1)
			default:
				t.Errorf("migrating [%d, %d] to shard %d: %v", lo, hi, to, err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return m
}

// halt stops the migrator and waits for its last move to finish.
func (m *migrator) halt() {
	m.stop.Store(true)
	<-m.done
}

// TestScanAllAtomicAcrossSplitRange runs full-table scans while writers
// hammer a hot slice of the first shard and a migrator moves part of
// that slice back and forth between shards 0 and 3. Every scan must see
// every key exactly once, and the run must complete minScans scans and
// commit minMoves migrations, or it tested nothing.
func TestScanAllAtomicAcrossSplitRange(t *testing.T) {
	const (
		rows     = 8192
		duration = 800 * time.Millisecond
		minScans = 2
		minMoves = 4
	)
	cfg := engine.DefaultConfig()
	cfg.Shards = 4
	cfg.KeySpan = rows
	cfg.CachePages = 512
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("v-%05d", k))
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)

	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		scans atomic.Int64
	)
	// Writers: hammer a narrow hot slice, part of which the migrator
	// keeps moving.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			for i := 0; !stop.Load(); i++ {
				if err := sess.Begin(); err != nil {
					t.Error(err)
					return
				}
				k := uint64((c*977 + i) % 512) // hot: first shard's low slice
				if err := sess.Update(cfg.TableID, k, []byte(fmt.Sprintf("w-%d-%d", c, i))); err != nil {
					if !errors.Is(err, tc.ErrLockConflict) {
						t.Error(err)
						return
					}
					if err := sess.Abort(); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := sess.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := mgr.NewSession()
		for !stop.Load() {
			if err := sess.Begin(); err != nil {
				t.Error(err)
				return
			}
			next := uint64(0)
			err := sess.ScanRange(cfg.TableID, 0, rows-1, nil, func(k uint64, _ []byte) error {
				if k != next {
					return fmt.Errorf("torn range: saw key %d, want %d", k, next)
				}
				next++
				return nil
			})
			if err != nil {
				if !errors.Is(err, tc.ErrLockConflict) {
					t.Error(err)
					return
				}
				if err := sess.Abort(); err != nil {
					t.Error(err)
					return
				}
				continue
			}
			if err := sess.Commit(); err != nil {
				t.Error(err)
				return
			}
			if next != rows {
				t.Errorf("torn range: scan ended at %d of %d keys", next, rows)
				return
			}
			scans.Add(1)
			// Breathe between scans: a full-table scan holds every
			// plane, and back-to-back scans would lock writers and the
			// migrator out of the run entirely.
			time.Sleep(5 * time.Millisecond)
		}
	}()

	mig := startMigrator(t, mgr, cfg.TableID, 256, 319, 3)
	// At least duration, and on a slow machine until both sides have
	// done their share, so the scans really raced migrations.
	exercised := func() bool { return scans.Load() >= minScans && mig.moved.Load() >= minMoves }
	time.Sleep(duration)
	for deadline := time.Now().Add(10 * time.Second); !exercised() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	mig.halt()
	stop.Store(true)
	wg.Wait()
	if !exercised() {
		t.Fatalf("race unexercised: %d scans (want %d), %d migrations committed (want %d, %d refused)",
			scans.Load(), minScans, mig.moved.Load(), minMoves, mig.refused.Load())
	}
	t.Logf("%d complete scans raced %d migrations (%d refused)", scans.Load(), mig.moved.Load(), mig.refused.Load())
}
