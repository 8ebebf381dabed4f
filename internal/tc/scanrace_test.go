// Range scans racing writers. Session.ScanRange holds the planes of
// every shard its range overlaps, so a scan straddling a shard boundary
// must observe either the committed pre-image or the committed
// post-image of any concurrent transaction — never a torn mixture: no
// missing keys, no duplicates, no mix of two writers' transactions.
// These tests hammer exactly that under -race: one rewriting a range
// across a shard boundary, one writing a hot slice under full-table
// scans.
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
)

// TestScanRangeAtomicAcrossShards scans [900,1200] — straddling the
// 1024 boundary of a 4×1024 key space — while a writer rewrites the
// whole range transactionally. Every successful scan must see the full
// key sequence with one writer's tag throughout.
func TestScanRangeAtomicAcrossShards(t *testing.T) {
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
	exercised := func() bool { return scans.Load() > 0 && rewrites.Load() > 0 }
	time.Sleep(duration)
	for deadline := time.Now().Add(10 * time.Second); !exercised() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if !exercised() {
		t.Fatalf("race unexercised: %d scans, %d rewrites", scans.Load(), rewrites.Load())
	}
	t.Logf("%d complete scans raced %d range rewrites", scans.Load(), rewrites.Load())
}

// TestScanAllSeesEveryKeyOnce runs full-table scans while writers
// hammer a hot slice of the first shard. Every scan must see every key
// exactly once, and the run must complete minScans scans and minCommits
// writer commits, or it tested nothing.
func TestScanAllSeesEveryKeyOnce(t *testing.T) {
	const (
		rows       = 8192
		duration   = 800 * time.Millisecond
		minScans   = 2
		minCommits = 4
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
		stop    atomic.Bool
		wg      sync.WaitGroup
		scans   atomic.Int64
		commits atomic.Int64
	)
	// Writers: hammer a narrow hot slice.
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
				commits.Add(1)
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
			// plane, and back-to-back scans would lock writers out of
			// the run entirely.
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// At least duration, and on a slow machine until both sides have
	// done their share, so the scans really raced writers.
	exercised := func() bool { return scans.Load() >= minScans && commits.Load() >= minCommits }
	time.Sleep(duration)
	for deadline := time.Now().Add(10 * time.Second); !exercised() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if !exercised() {
		t.Fatalf("race unexercised: %d scans (want %d), %d writer commits (want %d)",
			scans.Load(), minScans, commits.Load(), minCommits)
	}
	t.Logf("%d complete scans raced %d writer commits", scans.Load(), commits.Load())
}
