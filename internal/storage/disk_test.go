package storage

import (
	"bytes"
	"testing"

	"logrec/internal/sim"
)

func testConfig() Config {
	// Channels: 1 keeps IO strictly serial so expected completion
	// times are easy to state; parallelism has its own test.
	return Config{
		PageSize:        128,
		SeekTime:        4 * sim.Millisecond,
		TransferPerPage: 100 * sim.Microsecond,
		WriteSeekTime:   2 * sim.Millisecond,
		MaxBlock:        8,
		Channels:        1,
	}
}

func newDisk(t *testing.T) (*sim.Clock, *Disk) {
	t.Helper()
	clock := &sim.Clock{}
	d, err := New(clock, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return clock, d
}

func pageData(b byte, size int) []byte {
	return bytes.Repeat([]byte{b}, size)
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, d := newDisk(t)
	want := pageData(7, 128)
	if _, err := d.Write(5, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch")
	}
	// Write keeps the caller's slice and Read returns the stored image:
	// neither copies, which is what lets the pool share clean pages.
	if &got[0] != &want[0] {
		t.Fatal("Read returned a copy, not the stored image")
	}
	// A write replaces the image; it never writes into the old one, so
	// a slice read earlier keeps the content it was read with.
	if _, err := d.Write(5, pageData(8, 128)); err != nil {
		t.Fatal(err)
	}
	again, _ := d.Read(5)
	if again[0] != 8 || got[0] != 7 {
		t.Fatalf("after rewrite: read %d, earlier read %d; want 8, 7", again[0], got[0])
	}
}

func TestReadUnwritten(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Read(9); err == nil {
		t.Fatal("read of unwritten page succeeded")
	}
}

func TestWriteWrongSize(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Write(1, pageData(0, 64)); err == nil {
		t.Fatal("short write accepted")
	}
	if _, err := d.Write(InvalidPageID, pageData(0, 128)); err == nil {
		t.Fatal("write to page 0 accepted")
	}
}

func TestSyncReadAdvancesClock(t *testing.T) {
	clock, d := newDisk(t)
	if _, err := d.Write(1, pageData(1, 128)); err != nil {
		t.Fatal(err)
	}
	// The write booked the device; a read queues behind it.
	before := clock.Now()
	if _, err := d.Read(1); err != nil {
		t.Fatal(err)
	}
	writeCost := 2*sim.Millisecond + 100*sim.Microsecond
	readCost := 4*sim.Millisecond + 100*sim.Microsecond
	want := before.Add(writeCost + readCost)
	if clock.Now() != want {
		t.Fatalf("clock = %v, want %v", clock.Now(), want)
	}
	st := d.Stats()
	if st.Reads != 1 || st.PagesRead != 1 || st.Stalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchOverlapsWithCompute(t *testing.T) {
	clock, d := newDisk(t)
	for pid := PageID(10); pid < 14; pid++ {
		if _, err := d.Write(pid, pageData(byte(pid), 128)); err != nil {
			t.Fatal(err)
		}
	}
	writeDone := clock.Now().Add(4 * (2*sim.Millisecond + 100*sim.Microsecond))
	d.Prefetch([]PageID{10, 11, 12, 13})
	if clock.Now() != 0 {
		t.Fatalf("prefetch advanced the clock to %v", clock.Now())
	}
	// One block IO for 4 contiguous pages, queued after the writes.
	st := d.Stats()
	if st.PrefetchIOs != 1 || st.PrefetchPages != 4 || st.BlockReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Simulate long CPU work that outlasts the IO...
	blockDone := writeDone.Add(4*sim.Millisecond + 4*100*sim.Microsecond)
	clock.AdvanceTo(blockDone.Add(sim.Millisecond))
	// ...then the read is free (prefetch hit, no stall).
	before := clock.Now()
	if _, err := d.Read(11); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatal("read of completed prefetch advanced the clock")
	}
	if got := d.Stats().PrefetchHits; got != 1 {
		t.Fatalf("PrefetchHits = %d, want 1", got)
	}
}

func TestPrefetchEarlyReadStallsUntilIOCompletes(t *testing.T) {
	clock, d := newDisk(t)
	if _, err := d.Write(3, pageData(3, 128)); err != nil {
		t.Fatal(err)
	}
	writeDone := clock.Now().Add(2*sim.Millisecond + 100*sim.Microsecond)
	d.Prefetch([]PageID{3})
	ioDone := writeDone.Add(4*sim.Millisecond + 100*sim.Microsecond)
	if _, err := d.Read(3); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != ioDone {
		t.Fatalf("clock = %v, want stall until %v", clock.Now(), ioDone)
	}
	st := d.Stats()
	if st.Stalls != 1 || st.StallTime != ioDone.Sub(0) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchGroupsContiguousRunsAndCapsBlocks(t *testing.T) {
	_, d := newDisk(t)
	var pids []PageID
	// 10 contiguous pages (split into 8+2) plus one isolated page.
	for pid := PageID(20); pid < 30; pid++ {
		pids = append(pids, pid)
		if _, err := d.Write(pid, pageData(0, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Write(50, pageData(0, 128)); err != nil {
		t.Fatal(err)
	}
	pids = append(pids, 50)
	d.Prefetch(pids)
	st := d.Stats()
	if st.PrefetchIOs != 3 {
		t.Fatalf("PrefetchIOs = %d, want 3 (8+2+1)", st.PrefetchIOs)
	}
	if st.PrefetchPages != 11 {
		t.Fatalf("PrefetchPages = %d, want 11", st.PrefetchPages)
	}
}

func TestPrefetchSkipsInflightAndUnwritten(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Write(1, pageData(1, 128)); err != nil {
		t.Fatal(err)
	}
	d.Prefetch([]PageID{1, 2}) // 2 unwritten: skipped
	if got := d.Stats().PrefetchPages; got != 1 {
		t.Fatalf("PrefetchPages = %d, want 1", got)
	}
	d.Prefetch([]PageID{1}) // already inflight: skipped
	if got := d.Stats().PrefetchIOs; got != 1 {
		t.Fatalf("PrefetchIOs = %d, want 1", got)
	}
}

func TestForkCopyOnWrite(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Write(1, pageData(1, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(2, pageData(2, 128)); err != nil {
		t.Fatal(err)
	}
	d.Freeze()

	c1 := d.Fork(&sim.Clock{})
	c2 := d.Fork(&sim.Clock{})
	// Children see the parent's pages.
	got, err := c1.Read(1)
	if err != nil || got[0] != 1 {
		t.Fatalf("child read: %v %v", got, err)
	}
	// A child write is invisible to the parent and the sibling.
	if _, err := c1.Write(1, pageData(9, 128)); err != nil {
		t.Fatal(err)
	}
	fromC2, _ := c2.Read(1)
	if fromC2[0] != 1 {
		t.Fatal("sibling sees child write")
	}
	// Parent is frozen.
	if _, err := d.Write(3, pageData(3, 128)); err == nil {
		t.Fatal("write to frozen parent succeeded")
	}
	if c1.NumPages() != 2 || c2.NumPages() != 2 {
		t.Fatalf("NumPages: %d %d, want 2 2", c1.NumPages(), c2.NumPages())
	}
}

func TestResetStats(t *testing.T) {
	_, d := newDisk(t)
	if _, err := d.Write(1, pageData(1, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(1); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestChannelsParallelizePrefetch(t *testing.T) {
	clock := &sim.Clock{}
	cfg := testConfig()
	cfg.Channels = 4
	d, err := New(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four scattered (non-contiguous) pages.
	pids := []PageID{10, 20, 30, 40}
	for _, pid := range pids {
		if _, err := d.Write(pid, pageData(byte(pid), 128)); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(sim.Second) // drain write IOs
	start := clock.Now()
	d.Prefetch(pids)
	// All four IOs run in parallel on separate channels: reading the
	// last page should stall only ~one IO latency, not four.
	for _, pid := range pids {
		if _, err := d.Read(pid); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clock.Now().Sub(start)
	oneIO := 4*sim.Millisecond + 100*sim.Microsecond
	if elapsed != oneIO {
		t.Fatalf("parallel prefetch of 4 pages took %v, want one IO latency %v", elapsed, oneIO)
	}
}

func TestConfigValidation(t *testing.T) {
	clock := &sim.Clock{}
	bad := testConfig()
	bad.PageSize = 0
	if _, err := New(clock, bad); err == nil {
		t.Fatal("accepted zero page size")
	}
	bad = testConfig()
	bad.MaxBlock = 0
	if _, err := New(clock, bad); err == nil {
		t.Fatal("accepted zero MaxBlock")
	}
	bad = testConfig()
	bad.SeekTime = -1
	if _, err := New(clock, bad); err == nil {
		t.Fatal("accepted negative latency")
	}
	if _, err := New(nil, testConfig()); err == nil {
		t.Fatal("accepted nil clock")
	}
}
