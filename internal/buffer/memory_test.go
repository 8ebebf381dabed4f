package buffer

import (
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// heapGrowth returns how much the live heap grew across fn, each side
// read after a collection.
func heapGrowth(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestFrameFitsOneSizeClass: a frame with its page view and ring links
// inside is one 80-byte allocation.
func TestFrameFitsOneSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 80 {
		t.Fatalf("Frame is %d bytes, want at most 80", n)
	}
}

// filePool returns a pool of capacity frames over a page file under the
// test's temporary directory, with n formatted leaf pages written.
func filePool(t *testing.T, capacity, n int) *Pool {
	t.Helper()
	cfg := storage.DefaultConfig()
	cfg.PageSize = 256
	disk, err := storage.NewFileDisk(&sim.Clock{}, cfg, filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	seed(t, disk, n)
	pool, err := New(disk, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// cycleMisses returns a function that gets the next of pages 2 .. n+1
// in turn and unpins it, first marking it dirty if dirty is set, after
// running it over every page once so the page table's chunk exists.
func cycleMisses(t *testing.T, pool *Pool, n int, dirty bool) func() {
	pid := storage.PageID(2)
	miss := func() {
		f, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if dirty {
			pool.MarkDirty(f, 10)
		}
		pool.Unpin(f)
		pid = 2 + (pid-1)%storage.PageID(n)
	}
	for i := 0; i < n; i++ {
		miss()
	}
	return miss
}

// TestAdmissionAllocatesOnlyTheFrame: once the page table's chunk
// exists, a miss that evicts a clean page allocates the frame alone
// (its page view is the device's image) — on the file device besides
// the buffer the device reads into — and a new page allocates the
// frame and its bytes.
func TestAdmissionAllocatesOnlyTheFrame(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 8)
	for _, c := range []struct {
		device string
		pool   *Pool
		want   float64
	}{
		{"sim", pool, 1},
		{"file", filePool(t, 4, 8), 2},
	} {
		miss := cycleMisses(t, c.pool, 8, false)
		if n := testing.AllocsPerRun(100, miss); n != c.want {
			t.Fatalf("%s device: a miss allocates %v times, want %v", c.device, n, c.want)
		}
		if st := c.pool.Stats(); st.Hits != 0 || st.Evictions == 0 {
			t.Fatalf("%s device: the test wants misses that evict: %+v", c.device, st)
		}
	}
	next := storage.PageID(100)
	if n := testing.AllocsPerRun(100, func() {
		f, err := pool.NewPage(next, page.TypeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
		pool.drop(next)
		next++
	}); n != 2 {
		t.Fatalf("NewPage allocates %v times, want 2 (the frame and its bytes)", n)
	}
}

// TestChunkChurnAllocatesOnlyTheFrame: in a one-frame pool over two
// pages a page-table chunk apart, every miss evicts the other page and
// empties its chunk. The emptied chunk is the table's spare, which the
// admission reuses: the miss allocates the frame alone, not a chunk.
func TestChunkChurnAllocatesOnlyTheFrame(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 1)
	pids := []storage.PageID{2, 2 + 1<<12}
	for _, pid := range pids {
		data := page.New(disk.Config().PageSize, page.TypeLeaf).Bytes()
		if _, err := disk.Write(pid, data); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	miss := func() {
		f, err := pool.Get(pids[i%2])
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
		i++
	}
	miss()
	miss()
	if n := testing.AllocsPerRun(100, miss); n != 1 {
		t.Fatalf("a miss that empties one chunk and fills another allocates %v times, want 1 (the frame)", n)
	}
	if st := pool.Stats(); st.Hits != 0 || st.Evictions < 100 {
		t.Fatalf("the test wants misses that evict: %+v", st)
	}
}

// TestDirtyEvictionCopiesNoPage: on the file device, a miss that
// evicts a dirty page writes the victim's own bytes, allocating no
// snapshot of them: it costs the frame and the buffer the device reads
// into, as a clean eviction does.
func TestDirtyEvictionCopiesNoPage(t *testing.T) {
	pool := filePool(t, 4, 8)
	pool.SetELSN(1 << 40)
	miss := cycleMisses(t, pool, 8, true)
	before := pool.Stats()
	if n := testing.AllocsPerRun(100, miss); n != 2 {
		t.Fatalf("a dirty eviction allocates %v times, want 2 (the frame and the read buffer)", n)
	}
	if st := pool.Stats(); st.DirtyEvict-before.DirtyEvict < 100 {
		t.Fatalf("the test wants misses that evict dirty pages: %+v", st)
	}
}

// allocsPerRun is testing.AllocsPerRun that also returns the bytes
// allocated per call. It collects first and holds the collector off
// while fn runs, so no runtime work a collection starts counts.
func allocsPerRun(runs int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestDirtyingMissAllocs pins what one dirtying miss on a full pool of
// 4 KiB pages costs on each device: the miss evicts a dirty page (a
// flush write), reads the page, and the update that dirties it copies
// the shared image first. The bounds are the largest count of 20 runs
// plus 2 %, and -race measured the same: lower one when a change lowers
// its count, never raise one. On the sim device that is the frame and the
// 4 KiB copy; on the file device also the buffer the device reads into.
func TestDirtyingMissAllocs(t *testing.T) {
	cfg := storage.DefaultConfig()
	disk, err := storage.New(&sim.Clock{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	file, err := storage.NewFileDisk(&sim.Clock{}, cfg, filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	for _, c := range []struct {
		device        string
		disk          storage.Device
		allocs, bytes float64
	}{
		{"sim", disk, 2 * 1.02, 4176 * 1.02},
		{"file", file, 3 * 1.02, 8272 * 1.02},
	} {
		seed(t, c.disk, 8)
		pool, err := New(c.disk, 4)
		if err != nil {
			t.Fatal(err)
		}
		pool.SetELSN(1 << 40)
		pid, lsn := storage.PageID(2), uint64(10)
		miss := func() {
			f, err := pool.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			f.Page.SetLSN(lsn)
			pool.MarkDirty(f, wal.LSN(lsn))
			pool.Unpin(f)
			pid, lsn = 2+(pid-1)%8, lsn+1
		}
		for i := 0; i < 8; i++ {
			miss()
		}
		before := pool.Stats()
		allocs, bytes := allocsPerRun(100, miss)
		if st := pool.Stats(); st.DirtyEvict-before.DirtyEvict < 100 || st.Hits != 0 {
			t.Fatalf("%s device: the test wants misses that evict dirty pages: %+v", c.device, st)
		}
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s device: a dirtying miss allocates %.2f times, %.0f B; want at most %.2f, %.0f B", c.device, allocs, bytes, c.allocs, c.bytes)
		} else {
			t.Logf("%s device: a dirtying miss allocates %.2f times, %.0f B (bounds %.2f, %.0f B)", c.device, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// TestFarPIDCostsBoundedMemory: creating, getting and dropping page
// 1<<31 grows the heap by less than 1 MiB, and a Get of a page never
// written fails as before without growing the pool's page table.
func TestFarPIDCostsBoundedMemory(t *testing.T) {
	const far = storage.PageID(1 << 31)
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 2)
	// A table slot costs a chunk of 4,096 of them: a hundred failed Gets
	// of pages 4,096 apart would cost megabytes if a miss took one.
	grew := heapGrowth(func() {
		for i := storage.PageID(0); i < 100; i++ {
			if f, err := pool.Get(far + i<<12); err == nil || f != nil {
				t.Fatalf("Get of unwritten page %d: %v, %v", far+i<<12, f, err)
			}
		}
	})
	if grew >= 64<<10 {
		t.Fatalf("100 failed Gets of pages past %d grew the heap %d B", far, grew)
	}
	grew = heapGrowth(func() {
		f, err := pool.NewPage(far, page.TypeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
		if g, err := pool.Get(far); err != nil || g != f {
			t.Fatalf("Get(%d) after NewPage: %v", far, err)
		} else {
			pool.Unpin(g)
		}
		pool.drop(far)
		if pool.Contains(far) {
			t.Fatalf("page %d cached after drop", far)
		}
	})
	if grew >= 1<<20 {
		t.Fatalf("NewPage, Get and drop of page %d grew the heap %d B", far, grew)
	}
	runtime.KeepAlive(pool)
}

// TestRingMismatchCatchesOrphans: the stress test's ring check fails on
// a frame the page table holds but the ring does not link, and on one
// the ring links but the table does not hold.
func TestRingMismatchCatchesOrphans(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 3)
	for pid := storage.PageID(2); pid < 5; pid++ {
		f, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
	}
	if err := ringMismatch(pool); err != nil {
		t.Fatalf("consistent pool: %v", err)
	}
	orphan := &Frame{PID: 9}
	pool.frames.Set(orphan.PID, orphan)
	if ringMismatch(pool) == nil {
		t.Fatal("a mapped frame missing from the ring went unnoticed")
	}
	pool.frames.Delete(orphan.PID)
	pool.admit(orphan)
	pool.frames.Delete(orphan.PID)
	if ringMismatch(pool) == nil {
		t.Fatal("a ring frame missing from the page table went unnoticed")
	}
}
