package buffer

import (
	"runtime"
	"testing"
	"unsafe"

	"logrec/internal/page"
	"logrec/internal/storage"
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
// inside is one 96-byte allocation.
func TestFrameFitsOneSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n > 96 {
		t.Fatalf("Frame is %d bytes, want at most 96", n)
	}
}

// TestAdmissionAllocatesOnlyTheFrame: once the page table's chunk
// exists, a miss that evicts a clean page allocates the frame alone
// (its page view is the device's image), and a new page allocates the
// frame and its bytes.
func TestAdmissionAllocatesOnlyTheFrame(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 8)
	pid := storage.PageID(2)
	miss := func() {
		f, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
		pid = 2 + (pid-1)%8
	}
	for i := 0; i < 8; i++ {
		miss()
	}
	if n := testing.AllocsPerRun(100, miss); n != 1 {
		t.Fatalf("a miss allocates %v times, want 1 (the frame)", n)
	}
	if st := pool.Stats(); st.Hits != 0 || st.Evictions == 0 {
		t.Fatalf("the test wants misses that evict: %+v", st)
	}
	next := storage.PageID(100)
	if n := testing.AllocsPerRun(100, func() {
		f, err := pool.NewPage(next, page.TypeLeaf)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f)
		pool.Drop(next)
		next++
	}); n != 2 {
		t.Fatalf("NewPage allocates %v times, want 2 (the frame and its bytes)", n)
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
		pool.Drop(far)
		if pool.Contains(far) {
			t.Fatalf("page %d cached after Drop", far)
		}
	})
	if grew >= 1<<20 {
		t.Fatalf("NewPage, Get and Drop of page %d grew the heap %d B", far, grew)
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
