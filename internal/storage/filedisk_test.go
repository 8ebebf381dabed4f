package storage

import (
	"path/filepath"
	"sync"
	"testing"

	"logrec/internal/sim"
)

func newFileDisk(t *testing.T) (*FileDisk, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	cfg := DefaultConfig()
	d, err := NewFileDisk(&sim.Clock{}, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, path
}

// filePage builds page-size content whose header bytes are non-zero,
// like every real page image (type byte / boot magic).
func filePage(d *FileDisk, fill byte) []byte {
	buf := make([]byte, d.Config().PageSize)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

func TestFileDiskReadWriteRoundTrip(t *testing.T) {
	d, _ := newFileDisk(t)
	for pid := PageID(1); pid <= 10; pid++ {
		if _, err := d.Write(pid, filePage(d, byte(pid))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumPages(); got != 10 {
		t.Fatalf("NumPages = %d, want 10", got)
	}
	for pid := PageID(1); pid <= 10; pid++ {
		data, err := d.Read(pid)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(pid) || data[len(data)-1] != byte(pid) {
			t.Fatalf("page %d content mismatch", pid)
		}
	}
	if _, err := d.Read(11); err == nil {
		t.Fatal("read of unwritten page succeeded")
	}
	if d.Exists(11) || !d.Exists(7) {
		t.Fatal("Exists wrong")
	}
}

func TestFileDiskReopenRebuildsWrittenMap(t *testing.T) {
	d, path := newFileDisk(t)
	// Sparse writes: pages 1, 3 and 40 written; 2 and 4..39 are holes
	// (allocated-but-never-flushed slots read as zeros).
	for _, pid := range []PageID{1, 3, 40} {
		if _, err := d.Write(pid, filePage(d, byte(pid))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileDisk(&sim.Clock{}, d.Config(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumPages(); got != 3 {
		t.Fatalf("reopened NumPages = %d, want 3", got)
	}
	for _, pid := range []PageID{1, 3, 40} {
		if !re.Exists(pid) {
			t.Fatalf("page %d lost across reopen", pid)
		}
		data, err := re.Read(pid)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(pid) {
			t.Fatalf("page %d content lost across reopen", pid)
		}
	}
	for _, pid := range []PageID{2, 17, 39, 41} {
		if re.Exists(pid) {
			t.Fatalf("hole page %d reported as written", pid)
		}
	}
}

func TestFileDiskPrefetchAndStats(t *testing.T) {
	d, _ := newFileDisk(t)
	var pids []PageID
	for pid := PageID(1); pid <= 16; pid++ {
		if _, err := d.Write(pid, filePage(d, byte(pid))); err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	// The writes move only the write counters, so every other count
	// below is the prefetch's and the reads'.
	if st := d.Stats(); st != (Stats{Writes: 16, PagesWritten: 16}) {
		t.Fatalf("stats after 16 writes: %+v", st)
	}

	var mu sync.Mutex
	ops := map[IOOp]int{}
	d.SetIOHook(func(op IOOp, pages int) {
		mu.Lock()
		ops[op] += pages
		mu.Unlock()
	})

	d.Prefetch(pids) // 16 contiguous pages → 2 block IOs of MaxBlock=8
	for _, pid := range pids {
		data, err := d.Read(pid)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(pid) {
			t.Fatalf("prefetched page %d content mismatch", pid)
		}
	}
	st := d.Stats()
	if st.PrefetchIOs != 2 || st.PrefetchPages != 16 || st.BlockReads != 2 {
		t.Fatalf("prefetch grouping off: %+v", st)
	}
	if st.PrefetchHits+st.Stalls != 16 {
		t.Fatalf("every read must claim its prefetch (hits %d + stalls %d != 16)", st.PrefetchHits, st.Stalls)
	}
	if st.Reads != 2 {
		t.Fatalf("reads = %d, want the 2 prefetch IOs only", st.Reads)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ops[OpPrefetch] != 16 {
		t.Fatalf("hook saw %d prefetched pages, want 16", ops[OpPrefetch])
	}
	if d.Stats().Syncs != 1 {
		t.Fatalf("Syncs = %d, want 1", d.Stats().Syncs)
	}
}

func TestFileDiskFreeze(t *testing.T) {
	d, _ := newFileDisk(t)
	if _, err := d.Write(1, filePage(d, 1)); err != nil {
		t.Fatal(err)
	}
	d.Freeze()
	if _, err := d.Write(2, filePage(d, 2)); err == nil {
		t.Fatal("write to frozen disk succeeded")
	}
	if _, err := d.Read(1); err != nil {
		t.Fatalf("read after freeze: %v", err)
	}
}

func TestFileDiskConcurrentReaders(t *testing.T) {
	d, _ := newFileDisk(t)
	const pages = 64
	for pid := PageID(1); pid <= pages; pid++ {
		if _, err := d.Write(pid, filePage(d, byte(pid))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pid := PageID(uint32(w*31+i)%pages + 1)
				if i%7 == 0 {
					d.Prefetch([]PageID{pid, pid + 1})
				}
				data, err := d.Read(pid)
				if err != nil {
					t.Error(err)
					return
				}
				if data[0] != byte(pid) {
					t.Errorf("page %d content mismatch", pid)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
