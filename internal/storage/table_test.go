package storage

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
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

// chunks counts the table's allocated chunks.
func (t *Table[T]) chunks() int {
	n := 0
	for _, b := range t.dir {
		if b != nil {
			for _, c := range b {
				if c != nil {
					n++
				}
			}
		}
	}
	return n
}

// TestTableMatchesAMap runs random sets and deletes over dense PIDs and
// a few far ones against a map: Get, Len and the ascending Range agree
// after every step.
func TestTableMatchesAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[int]
	ref := map[PageID]int{}
	far := []PageID{1 << 31, 1<<32 - 1, 3 << 22, chunkLen, chunkLen - 1}
	for i := 0; i < 20000; i++ {
		pid := PageID(rng.Intn(3 * chunkLen))
		if rng.Intn(20) == 0 {
			pid = far[rng.Intn(len(far))]
		}
		if rng.Intn(3) == 0 {
			tab.Delete(pid)
			delete(ref, pid)
		} else {
			tab.Set(pid, i)
			ref[pid] = i
		}
		if got, ok := tab.Get(pid); ok != (ref[pid] == i) || ok && got != i {
			t.Fatalf("step %d: Get(%d) = %d, %v after the step set or cleared it", i, pid, got, ok)
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, the map holds %d", tab.Len(), len(ref))
	}
	want := make([]PageID, 0, len(ref))
	for pid, v := range ref {
		want = append(want, pid)
		if got, ok := tab.Get(pid); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v, want %d", pid, got, ok, v)
		}
	}
	slices.Sort(want)
	var got []PageID
	tab.Range(func(pid PageID, v int) bool {
		if v != ref[pid] {
			t.Fatalf("Range gives %d for page %d, want %d", v, pid, ref[pid])
		}
		got = append(got, pid)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Range walked %d pages out of order or incompletely, want %d ascending", len(got), len(want))
	}
	n := 0
	tab.Range(func(PageID, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range went on after its callback returned false: %d calls", n)
	}
}

// TestTableFarPIDCostsOneChunk: a PID far past every other costs one
// chunk and one directory block, not memory in proportion to its
// value, and looking up or deleting an unset one allocates nothing.
func TestTableFarPIDCostsOneChunk(t *testing.T) {
	var tab Table[[]byte]
	for _, pid := range []PageID{1 << 31, 1<<32 - 1, 12345} {
		tab.Delete(pid)
		if _, ok := tab.Get(pid); ok || tab.chunks() != 0 {
			t.Fatalf("lookup of unset page %d: found %v, %d chunks allocated", pid, ok, tab.chunks())
		}
	}
	if n := testing.AllocsPerRun(100, func() { tab.Get(1 << 31) }); n != 0 {
		t.Fatalf("Get of an unset page allocates %v times", n)
	}
	grew := heapGrowth(func() { tab.Set(1<<31, nil) })
	if tab.chunks() != 1 || grew >= 1<<20 {
		t.Fatalf("setting page %d allocated %d chunks, %d B", PageID(1<<31), tab.chunks(), grew)
	}
	runtime.KeepAlive(&tab)
}

// TestTableDeleteUnlinksAnEmptyChunk: deleting the last set ID of a
// chunk unlinks the chunk, while a chunk that still holds an ID keeps
// it. The first emptied chunk is kept as the spare, a second one is
// freed, and the next chunk Set needs is the spare, not a new one.
func TestTableDeleteUnlinksAnEmptyChunk(t *testing.T) {
	var tab Table[int]
	tab.Set(1<<31, 1)
	tab.Set(1<<31+1, 2)
	tab.Set(5, 3)
	tab.Set(1<<20, 4)
	if tab.chunks() != 3 {
		t.Fatalf("four sets in three chunks allocated %d chunks", tab.chunks())
	}
	tab.Delete(1 << 31)
	if tab.chunks() != 3 || tab.spare != nil {
		t.Fatalf("deleting one of a chunk's two IDs left %d chunks and spare %p, want 3 and none", tab.chunks(), tab.spare)
	}
	tab.Delete(1<<31 + 1)
	spare := tab.spare
	if tab.chunks() != 2 || spare == nil {
		t.Fatalf("deleting a chunk's last ID left %d chunks and spare %p, want 2 and a spare", tab.chunks(), spare)
	}
	tab.Delete(1 << 20)
	if tab.chunks() != 1 || tab.spare != spare {
		t.Fatalf("emptying a second chunk left %d chunks and spare %p, want 1 and the first spare %p", tab.chunks(), tab.spare, spare)
	}
	if v, ok := tab.Get(5); !ok || v != 3 || tab.Len() != 1 {
		t.Fatalf("the other chunk's ID: Get(5) = %d, %v; Len %d", v, ok, tab.Len())
	}
	if n := testing.AllocsPerRun(100, func() {
		tab.Set(1<<31+1, 4)
		tab.Delete(1<<31 + 1)
	}); n != 0 {
		t.Fatalf("setting and deleting the only ID of a chunk allocates %v times, want 0 (the spare)", n)
	}
	tab.Set(1<<31+1, 4)
	if v, ok := tab.Get(1<<31 + 1); !ok || v != 4 || tab.chunks() != 2 || tab.spare != nil {
		t.Fatalf("re-setting an ID of an unlinked chunk: Get = %d, %v; %d chunks, spare %p", v, ok, tab.chunks(), tab.spare)
	}
	if _, ok := tab.Get(1 << 31); ok {
		t.Fatal("the reused spare still holds a deleted ID")
	}
}

// TestDiskFarPIDCostsBoundedMemory: writing, reading and probing page
// 1<<31 — on a disk and through a fork's fall-through to it — grows the
// heap by less than 1 MiB beyond the image, and a read or probe of a
// page never written fails as before without allocating a chunk.
func TestDiskFarPIDCostsBoundedMemory(t *testing.T) {
	const far = PageID(1 << 31)
	clock, d := newDisk(t)
	for _, probe := range []func() bool{
		func() bool { _, err := d.Read(far); return err == nil },
		func() bool { return d.Exists(far) },
		func() bool { _, ok := d.Image(far); return ok },
	} {
		if probe() {
			t.Fatalf("a probe found page %d before it was written", far)
		}
	}
	if d.pages.chunks() != 0 {
		t.Fatalf("probing an unwritten page allocated %d chunks", d.pages.chunks())
	}
	img := pageData(9, testConfig().PageSize)
	var child *Disk
	grew := heapGrowth(func() {
		if _, err := d.Write(far, img); err != nil {
			t.Fatal(err)
		}
		if got, err := d.Read(far); err != nil || !slices.Equal(got, img) {
			t.Fatalf("Read(%d) after Write: %v", far, err)
		}
		if _, ok := d.Image(far); !ok || !d.Exists(far) || d.NumPages() != 1 {
			t.Fatalf("page %d not found after its write (%d pages)", far, d.NumPages())
		}
		d.Freeze()
		child = d.Fork(clock)
		if got, err := child.Read(far); err != nil || !slices.Equal(got, img) {
			t.Fatalf("fork's Read(%d) through its base: %v", far, err)
		}
		for _, pid := range []PageID{far, far + 1} {
			if _, err := child.Write(pid, img); err != nil {
				t.Fatal(err)
			}
		}
		if n := child.NumPages(); n != 2 {
			t.Fatalf("fork holds %d pages, want 2 (one rewritten over its base)", n)
		}
	})
	if grew >= 1<<20 {
		t.Fatalf("writing and reading page %d on a disk and its fork grew the heap %d B", far, grew)
	}
	if child.pages.chunks() != 1 {
		t.Fatalf("fork allocated %d chunks for two writes to one chunk", child.pages.chunks())
	}
	runtime.KeepAlive(child)
}
