package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"logrec/internal/btree"
	"logrec/internal/dc"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// TestShardedLoadEqualsPerShardInserts: a 4-shard Engine.Load leaves on
// every shard's device exactly the tree pages a stand-alone DC gets from
// row-at-a-time Tree.InsertLogged of that shard's rows — on the
// simulated and the file device, and on a standby (whose Load stops
// after the flush, so its boot page is comparable too).
func TestShardedLoadEqualsPerShardInserts(t *testing.T) {
	const rows, shards = 20000, 4
	valFn := func(k uint64) []byte { return []byte(fmt.Sprintf("row-%08d-%0*d", k, int(k%23), 0)) }
	for _, tc := range []struct {
		name    string
		device  DeviceKind
		standby bool
	}{
		{"sim", DeviceSim, false},
		{"file", DeviceFile, false},
		{"standby", DeviceSim, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CachePages = shards * 32
			cfg.Shards = shards
			cfg.KeySpan = rows
			cfg.Device = tc.device
			cfg.Standby = tc.standby
			if tc.device == DeviceFile {
				cfg.Dir = t.TempDir()
			}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Load(rows, valFn); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				clock := &sim.Clock{}
				refDisk, err := storage.New(clock, cfg.Disk)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := dc.New(clock, refDisk, wal.NewLog(), cfg.CachePages/shards, cfg.TableID, wal.ShardID(i), cfg.DC)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for k := uint64(0); k < rows; k++ {
					if eng.Set.Locate(k) != wal.ShardID(i) {
						continue
					}
					if err := ref.Tree().InsertLogged(k, valFn(k), func(storage.PageID) wal.LSN { return wal.NilLSN }); err != nil {
						t.Fatal(err)
					}
					n++
				}
				if n == 0 {
					t.Fatalf("shard %d got no rows", i)
				}
				if err := ref.FinishLoad(); err != nil {
					t.Fatal(err)
				}
				meta := eng.DCs[i].Tree().Meta()
				if want := ref.Tree().Meta(); meta != want {
					t.Fatalf("shard %d: Meta %+v, row-at-a-time build has %+v", i, meta, want)
				}
				first := storage.MetaPageID + 1
				if tc.standby {
					first = storage.MetaPageID
				}
				for pid := first; pid < meta.NextPID; pid++ {
					got, err := eng.Disks[i].Read(pid)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refDisk.Read(pid)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("shard %d page %d differs from the row-at-a-time build", i, pid)
					}
				}
			}
			if tc.device == DeviceFile {
				eng.Crash() // closes the page files and the WAL
			}
		})
	}
}

// loadedPages bulk-loads rows rows from valFn into a new one-shard
// engine with a pool small enough that the load evicts, and returns
// every tree page on its device.
func loadedPages(t *testing.T, rows int, valFn func(uint64) []byte) [][]byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CachePages = 32
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(rows, valFn); err != nil {
		t.Fatal(err)
	}
	var pages [][]byte
	for pid := storage.MetaPageID + 1; pid < eng.DC.Tree().Meta().NextPID; pid++ {
		img, err := eng.Disk.Read(pid)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, bytes.Clone(img))
	}
	return pages
}

// TestLoadCopiesReusedBuffer: a valFn that returns one buffer,
// overwritten on every call, loads the same pages as one that returns a
// fresh slice per row. Rows of 13 to 300 bytes fill batches by their
// row count and by their bytes alike, and the pool is small enough that
// the loader evicts while the caller refills the buffer.
func TestLoadCopiesReusedBuffer(t *testing.T) {
	const rows = 20000
	row := func(dst []byte, k uint64) []byte {
		return fmt.Appendf(dst, "row-%08d-%s", k, bytes.Repeat([]byte{byte('a' + k%26)}, int(k*7919%288)))
	}
	fresh := loadedPages(t, rows, func(k uint64) []byte { return row(nil, k) })
	buf := make([]byte, 0, 512)
	reused := loadedPages(t, rows, func(k uint64) []byte { return row(buf[:0], k) })
	if len(reused) != len(fresh) {
		t.Fatalf("reused buffer loads %d pages, fresh slices %d", len(reused), len(fresh))
	}
	for i := range fresh {
		if !bytes.Equal(reused[i], fresh[i]) {
			t.Fatalf("page %d differs between a reused buffer and fresh slices", storage.MetaPageID+1+storage.PageID(i))
		}
	}
}

// settledGoroutines waits up to a second for the goroutine count to
// fall back to base or below (a goroutine that has signalled its end
// may not have exited yet, nor may one an earlier test left) and
// returns the last count.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestLoadStopsAfterARowFails: a value too large for a page at key k
// (larger than a whole batch, too) fails Load with
// btree.ErrValueTooLarge, valFn is called for at most a ring of batches
// beyond k, and the loader goroutine ends.
func TestLoadStopsAfterARowFails(t *testing.T) {
	const rows, bad = 50000, 3000
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	calls := 0
	huge := make([]byte, 2*loadBatchBytes)
	err = eng.Load(rows, func(k uint64) []byte {
		calls++
		if k == bad {
			return huge
		}
		return []byte(fmt.Sprintf("row-%08d", k))
	})
	if !errors.Is(err, btree.ErrValueTooLarge) {
		t.Fatalf("Load = %v, want ErrValueTooLarge", err)
	}
	if limit := bad + 1 + loadRing*loadBatchRows; calls <= bad || calls > limit {
		t.Fatalf("valFn called %d times; want more than %d and at most %d", calls, bad, limit)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Load returned, %d before", n, base)
	}
}

// TestLoadPanicEndsTheLoader: a panic of valFn reaches Load's caller,
// and the loader goroutine ends with it.
func TestLoadPanicEndsTheLoader(t *testing.T) {
	const rows, bad = 50000, 3000
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	got := func() (p any) {
		defer func() { p = recover() }()
		_ = eng.Load(rows, func(k uint64) []byte {
			if k == bad {
				panic("valFn failed")
			}
			return []byte(fmt.Sprintf("row-%08d", k))
		})
		return nil
	}()
	if got != "valFn failed" {
		t.Fatalf("recovered %v, want valFn's panic", got)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Load panicked, %d before", n, base)
	}
}
