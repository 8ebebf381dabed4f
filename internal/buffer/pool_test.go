package buffer

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logrec/internal/dpt"
	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

func newPoolEnv(t *testing.T, capacity int) (*sim.Clock, *storage.Disk, *Pool) {
	t.Helper()
	clock := &sim.Clock{}
	cfg := storage.Config{
		PageSize:        256,
		SeekTime:        4 * sim.Millisecond,
		TransferPerPage: 100 * sim.Microsecond,
		WriteSeekTime:   2 * sim.Millisecond,
		MaxBlock:        8,
		Channels:        1,
	}
	disk, err := storage.New(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := New(disk, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return clock, disk, pool
}

// seed writes n formatted leaf pages directly to disk.
func seed(t *testing.T, disk storage.Device, n int) {
	t.Helper()
	for pid := storage.PageID(2); pid < storage.PageID(2+n); pid++ {
		data := page.New(disk.Config().PageSize, page.TypeLeaf).Bytes()
		if _, err := disk.Write(pid, data); err != nil {
			t.Fatal(err)
		}
	}
}

// flush writes f the way eviction, the lazywriter and a checkpoint do:
// flushFrame under the pool latch.
func flush(p *Pool, f *Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushFrame(f)
}

func TestGetMissFetchesAndCaches(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 2)
	f, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f)
	if st := pool.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	g, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(g)
	if st := pool.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if f != g {
		t.Fatal("second Get returned a different frame")
	}
}

func TestEvictionLRUAndDirtyWriteback(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 2)
	seed(t, disk, 3)
	pool.SetLogForce(func() wal.LSN { return wal.LSN(1 << 40) })

	f2, _ := pool.Get(2)
	if err := f2.Page.Insert(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f2.Page.SetLSN(10)
	pool.MarkDirty(f2, 10)
	pool.SetELSN(100)
	pool.Unpin(f2)

	f3, _ := pool.Get(3)
	pool.Unpin(f3)
	// Pool is full; getting page 4 evicts page 2 (LRU), flushing it.
	f4, err := pool.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f4)
	if pool.Contains(2) {
		t.Fatal("LRU victim still cached")
	}
	st := pool.Stats()
	if st.Evictions != 1 || st.DirtyEvict != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The flushed content must be durable.
	data, err := disk.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	p := page.WrapShared(data)
	if _, found := p.Search(7); !found {
		t.Fatal("flushed page lost the insert")
	}
	if p.LSN() != 10 {
		t.Fatalf("flushed pLSN = %d, want 10", p.LSN())
	}
}

func TestPinnedFramesAreNotEvicted(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 2)
	seed(t, disk, 3)
	f2, _ := pool.Get(2) // stays pinned
	f3, _ := pool.Get(3)
	pool.Unpin(f3)
	f4, err := pool.Get(4) // must evict 3, not pinned 2
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Contains(2) || pool.Contains(3) {
		t.Fatal("eviction chose a pinned frame")
	}
	pool.Unpin(f2)
	pool.Unpin(f4)
}

func TestAllPinnedFails(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 1)
	seed(t, disk, 2)
	f, _ := pool.Get(2)
	if _, err := pool.Get(3); err == nil {
		t.Fatal("Get succeeded with all frames pinned")
	}
	pool.Unpin(f)
}

func TestWALProtocolForcesLog(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	forced := false
	// Like wal.Log.Flush, the force returns the exclusive end: the LSN
	// the next record will get.
	pool.SetLogForce(func() wal.LSN {
		forced = true
		return 401
	})
	pool.SetELSN(400)
	f, _ := pool.Get(2)
	pool.MarkDirty(f, 400) // the record at eLSN is the first unstable one
	if err := flush(pool, f); err != nil {
		t.Fatal(err)
	}
	if !forced {
		t.Fatal("flush of the record at eLSN did not force the log")
	}
	if pool.ELSN() != 401 {
		t.Fatalf("eLSN = %v, want 401", pool.ELSN())
	}
	if got := pool.Stats().LogForces; got != 1 {
		t.Fatalf("LogForces = %d", got)
	}
	pool.Unpin(f)
}

func TestWALProtocolViolationWithoutForce(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	pool.SetELSN(400)
	f, _ := pool.Get(2)
	pool.MarkDirty(f, 400)
	if err := flush(pool, f); err == nil {
		t.Fatal("WAL violation not detected")
	}
	// A force that still ends at the record's own LSN has not made it
	// stable.
	pool.SetLogForce(func() wal.LSN { return 400 })
	if err := flush(pool, f); err == nil {
		t.Fatal("WAL violation persisting after the force not detected")
	}
	pool.Unpin(f)
}

func TestCheckpointBitSemantics(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 8)
	seed(t, disk, 4)
	pool.SetELSN(1 << 40)

	// Dirty pages 2 and 3 before the checkpoint.
	for _, pid := range []storage.PageID{2, 3} {
		f, _ := pool.Get(pid)
		pool.MarkDirty(f, 10)
		pool.Unpin(f)
	}
	pool.BeginCheckpointFlip()
	// Page 4 is dirtied during the checkpoint: different bit, exempt.
	f4, _ := pool.Get(4)
	pool.MarkDirty(f4, 20)
	pool.Unpin(f4)

	if err := pool.FlushForCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Flushes; got != 2 {
		t.Fatalf("checkpoint flushed %d pages, want 2", got)
	}
	if pool.DirtyCount() != 1 {
		t.Fatalf("dirty count = %d, want 1 (page dirtied during ckpt)", pool.DirtyCount())
	}
}

// TestCheckpointFlushesInPageOrder: a checkpoint flushes its pages in
// ascending page order whatever order they were dirtied in, so the flush
// batches the tracker logs are the same on every run.
func TestCheckpointFlushesInPageOrder(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 16)
	seed(t, disk, 12)
	pool.SetELSN(1 << 40)
	var flushed []storage.PageID
	pool.SetFlushHook(func(pid storage.PageID, _ sim.Time) { flushed = append(flushed, pid) })
	for _, pid := range []storage.PageID{9, 2, 13, 5, 11, 3, 7} {
		f, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		pool.MarkDirty(f, 10)
		pool.Unpin(f)
	}
	pool.BeginCheckpointFlip()
	if err := pool.FlushForCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if want := []storage.PageID{2, 3, 5, 7, 9, 11, 13}; !slices.Equal(flushed, want) {
		t.Fatalf("checkpoint flushed %v, want %v", flushed, want)
	}
}

func TestFlushHookFires(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	pool.SetELSN(1 << 40)
	var flushed []storage.PageID
	pool.SetFlushHook(func(pid storage.PageID, done sim.Time) {
		flushed = append(flushed, pid)
		if done == 0 {
			t.Error("flush completion time is zero")
		}
	})
	f, _ := pool.Get(2)
	pool.MarkDirty(f, 5)
	if err := flush(pool, f); err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f)
	if len(flushed) != 1 || flushed[0] != 2 {
		t.Fatalf("flush hook saw %v", flushed)
	}
	// Clean frame: flush is a no-op, hook must not fire again.
	if err := flush(pool, f); err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 1 {
		t.Fatal("hook fired for a clean frame")
	}
}

func TestNewPageNoDiskRead(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	f, err := pool.NewPage(9, page.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f)
	if got := disk.Stats().Reads; got != 0 {
		t.Fatalf("NewPage performed %d reads", got)
	}
	if f.Page.Type() != page.TypeLeaf {
		t.Fatal("NewPage not formatted")
	}
	if _, err := pool.NewPage(9, page.TypeLeaf); err == nil {
		t.Fatal("NewPage of cached page succeeded")
	}
}

func TestMarkDirtyTracksRecAndLastLSN(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	pool.SetELSN(1 << 40)
	f, _ := pool.Get(2)
	pool.MarkDirty(f, 100)
	pool.MarkDirty(f, 200)
	if f.RecLSN != 100 || f.LastLSN != 200 {
		t.Fatalf("RecLSN=%v LastLSN=%v", f.RecLSN, f.LastLSN)
	}
	if err := flush(pool, f); err != nil {
		t.Fatal(err)
	}
	// Re-dirty after flush: RecLSN restarts.
	pool.MarkDirty(f, 300)
	if f.RecLSN != 300 {
		t.Fatalf("RecLSN after re-dirty = %v, want 300", f.RecLSN)
	}
	pool.Unpin(f)
}

func TestPrefetchBoundedByFreeFrames(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 3)
	seed(t, disk, 10)
	f, _ := pool.Get(2) // one frame used
	pool.Unpin(f)
	n, issued := pool.Prefetch([]storage.PageID{3, 4, 5, 6, 7})
	if n != 2 || issued != 2 {
		t.Fatalf("consumed %d pids with 2 free frames, want 2", n)
	}
	if got := disk.Stats().PrefetchPages; got != 2 {
		t.Fatalf("issued %d pages, want 2", got)
	}
	// Cached pages are consumed without issuing.
	n, issued = pool.Prefetch([]storage.PageID{2})
	if n != 1 || issued != 0 {
		t.Fatalf("cached pid consumed %d, want 1", n)
	}
	if got := disk.Stats().PrefetchPages; got != 2 {
		t.Fatalf("cached pid issued an IO")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	f, _ := pool.Get(2)
	pool.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	pool.Unpin(f)
}

// TestFlushAllCleansEveryDirtyFrame: FlushAll writes exactly the dirty
// frames, and the resident, dirty and flush counts agree with a walk of
// the frames before and after.
func TestFlushAllCleansEveryDirtyFrame(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 64)
	seed(t, disk, 40)
	pool.SetELSN(1 << 40)
	for pid := storage.PageID(2); pid < 42; pid++ {
		f, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pid%2 == 0 {
			pool.MarkDirty(f, 100)
		}
		pool.Unpin(f)
	}
	if pool.resident() != 40 {
		t.Fatalf("Len = %d, want 40", pool.resident())
	}
	if got := pool.DirtyCount(); got != 20 {
		t.Fatalf("DirtyCount = %d, want 20", got)
	}
	if got := len(pool.dirtyPIDs()); got != 20 {
		t.Fatalf("dirtyPIDs = %d entries, want 20", got)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if pool.DirtyCount() != 0 || len(pool.dirtyPIDs()) != 0 {
		t.Fatalf("dirty after FlushAll: count %d, PIDs %v", pool.DirtyCount(), pool.dirtyPIDs())
	}
	if st := pool.Stats(); st.Misses != 40 || st.Flushes != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if pool.resident() != 40 {
		t.Fatalf("FlushAll changed residency: Len = %d", pool.resident())
	}
}

// gatedDevice holds the first page write — or with holdRead the first
// page read — open until release is closed, after closing entered, so
// a dirty eviction or a miss then sits with the pool latch released
// for as long as the test needs. It counts the reads it serves.
type gatedDevice struct {
	*storage.Disk
	holdRead bool
	once     sync.Once
	entered  chan struct{}
	release  chan struct{}
	reads    atomic.Int32
}

func newGatedDevice(disk *storage.Disk, holdRead bool) *gatedDevice {
	return &gatedDevice{Disk: disk, holdRead: holdRead, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedDevice) hold() {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

func (g *gatedDevice) Read(pid storage.PageID) ([]byte, error) {
	g.reads.Add(1)
	if g.holdRead {
		g.hold()
	}
	return g.Disk.Read(pid)
}

func (g *gatedDevice) Write(pid storage.PageID, data []byte) (sim.Time, error) {
	if !g.holdRead {
		g.hold()
	}
	return g.Disk.Write(pid, data)
}

// waitEntered waits for g to hold its IO open.
func (g *gatedDevice) waitEntered(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached the device", what)
	}
}

type got struct {
	f   *Frame
	err error
}

// getAsync runs pool.Get(pid) on its own goroutine.
func getAsync(pool *Pool, pid storage.PageID) <-chan got {
	ch := make(chan got, 1)
	go func() {
		f, err := pool.Get(pid)
		ch <- got{f, err}
	}()
	return ch
}

// waitGet returns the frame a getAsync got, failing if it failed or
// hung.
func waitGet(t *testing.T, ch <-chan got, who string) *Frame {
	t.Helper()
	select {
	case g := <-ch:
		if g.err != nil {
			t.Fatalf("%s Get: %v", who, g.err)
		}
		return g.f
	case <-time.After(10 * time.Second):
		t.Fatalf("%s Get hung", who)
		return nil
	}
}

// TestConcurrentMissDuringDirtyEvictionSharesFrame: two getters miss on
// the same page while the first is flushing its dirty victim with the
// latch released. Both must get the one frame; a second frame for the
// page would be an orphan in the replacement order whose eviction later
// unmaps the live frame — and a dirty frame missing from the map is
// never flushed by a checkpoint.
func TestConcurrentMissDuringDirtyEvictionSharesFrame(t *testing.T) {
	_, raw, _ := newPoolEnv(t, 1)
	seed(t, raw, 10)
	dev := newGatedDevice(raw, false)
	pool, err := New(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetELSN(1 << 40)
	f2, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	pool.MarkDirty(f2, 10)
	pool.Unpin(f2)
	f3, err := pool.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f3)

	// The first getter evicts dirty page 2 and blocks in its write.
	first := getAsync(pool, 10)
	dev.waitEntered(t, "the first getter's flush of its dirty victim")
	// The second evicts clean page 3 and loads page 10 meanwhile.
	b := waitGet(t, getAsync(pool, 10), "second")
	close(dev.release)
	a := waitGet(t, first, "first")

	if a != b {
		t.Fatal("two concurrent misses on page 10 returned different frames")
	}
	if n := pool.resident(); n != 1 {
		t.Fatalf("Len = %d, want 1 (page 10 only)", n)
	}
	if n := pool.PinnedCount(); n != 1 {
		t.Fatalf("PinnedCount = %d, want 1", n)
	}
	pool.Unpin(a)
	pool.Unpin(b)
}

// TestConcurrentMissesShareOneRead: a getter that finds its page's
// read in flight waits for that read and gets the frame it loads. The
// pool does no other IO meanwhile, so only the finished read's wakeup
// can release the waiter: a lost wakeup hangs here.
func TestConcurrentMissesShareOneRead(t *testing.T) {
	_, raw, _ := newPoolEnv(t, 1)
	seed(t, raw, 4)
	dev := newGatedDevice(raw, true)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := getAsync(pool, 5)
	dev.waitEntered(t, "the first getter's read")
	second := getAsync(pool, 5)
	select {
	case <-second:
		t.Fatal("a second getter of page 5 returned while its read was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(dev.release)
	a, b := waitGet(t, first, "first"), waitGet(t, second, "second")
	if a != b {
		t.Fatal("two concurrent misses on page 5 returned different frames")
	}
	if n := dev.reads.Load(); n != 1 {
		t.Fatalf("page 5 was read %d times, want once", n)
	}
	if st := pool.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want one miss and one hit", st)
	}
	pool.Unpin(a)
	pool.Unpin(b)
}

// TestConcurrentFlushesShareOneWrite: a flusher that finds the frame's
// write in flight waits for it and finds the frame clean. Only the
// finished write's wakeup can release it: a lost wakeup hangs here.
func TestConcurrentFlushesShareOneWrite(t *testing.T) {
	_, raw, _ := newPoolEnv(t, 1)
	seed(t, raw, 1)
	dev := newGatedDevice(raw, false)
	pool, err := New(dev, 4)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetELSN(1 << 40)
	f, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	pool.MarkDirty(f, 10)
	flushAsync := func() <-chan error {
		ch := make(chan error, 1)
		go func() { ch <- flush(pool, f) }()
		return ch
	}
	first := flushAsync()
	dev.waitEntered(t, "the first flush")
	second := flushAsync()
	select {
	case <-second:
		t.Fatal("a second flush of page 2 returned while its write was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(dev.release)
	for _, ch := range []<-chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a flush of page 2 hung")
		}
	}
	if st := pool.Stats(); st.Flushes != 1 || pool.DirtyCount() != 0 {
		t.Fatalf("stats = %+v, dirty %d: want one write and a clean page", st, pool.DirtyCount())
	}
	pool.Unpin(f)
}

// TestConcurrentPinWaitsOutAFlushWrite: a getter of a page whose dirty
// eviction is writing waits for the write and its flush hook. Were it
// pinned meanwhile, an update it applied would be missing from the
// written image, yet the hook — the trackers' NoteFlush — would run
// under an end of stable log already past the update's record: analysis
// (SQL1's BW records and Log1's ∆ records alike, through
// dpt.PruneFlushed) would drop the page from the DPT and redo would
// skip the committed update.
func TestConcurrentPinWaitsOutAFlushWrite(t *testing.T) {
	_, raw, _ := newPoolEnv(t, 1)
	seed(t, raw, 10)
	dev := newGatedDevice(raw, false)
	pool, err := New(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	// eosl and publish mirror DC.EOSL, which feeds the pool's eLSN and
	// the tracker's; the hook records the flush's FW-LSN as NoteFlush
	// takes it. The hook runs under the pool latch.
	var eosl atomic.Uint64
	publish := func(e wal.LSN) {
		pool.SetELSN(e)
		eosl.Store(uint64(e))
	}
	var fws []wal.LSN
	pool.SetFlushHook(func(pid storage.PageID, _ sim.Time) {
		if pid == 2 {
			fws = append(fws, wal.LSN(eosl.Load()))
		}
	})
	publish(11)
	f2, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	f2.Page.SetLSN(10)
	pool.MarkDirty(f2, 10)
	pool.Unpin(f2)
	f3, err := pool.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f3)

	// A getter of page 10 evicts dirty page 2 and blocks in its write.
	first := getAsync(pool, 10)
	dev.waitEntered(t, "the dirty eviction's write")
	// Meanwhile a session updates page 2 at LSN 50, and a log force
	// makes the update's record stable.
	const update = wal.LSN(50)
	updated := make(chan error, 1)
	go func() {
		f, err := pool.Get(2)
		if err == nil {
			f.Page.SetLSN(uint64(update))
			pool.MarkDirty(f, update)
			publish(60)
			pool.Unpin(f)
		}
		updated <- err
	}()
	select {
	case err := <-updated:
		t.Error("a session pinned and updated page 2 while its flush write was in flight")
		updated <- err
	case <-time.After(20 * time.Millisecond):
	}
	close(dev.release)
	pool.Unpin(waitGet(t, first, "the evicting"))
	select {
	case err := <-updated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the update of page 2 hung")
	}

	// Analysis meets the update's record, then the flush report(s).
	table := dpt.New()
	table.Add(2, update)
	for _, fw := range fws {
		table.PruneFlushed([]storage.PageID{2}, fw)
	}
	img, ok := raw.Image(2)
	if !ok {
		t.Fatal("page 2 has no stored image")
	}
	if lsn := wal.LSN(page.WrapShared(img).LSN()); lsn < update && table.Find(2) == nil {
		t.Fatalf("page 2 is stored at LSN %v without its update at %v, yet the flush reports (FW-LSNs %v) prune it from the DPT", lsn, update, fws)
	}
}

// TestCleanFramesShareTheDeviceImage: a frame shares its page image
// with the simulated device until the page is first written. A
// mutation never reaches the device image except through a flush; a
// flush hands the frame's bytes over; the next mutation copies them.
func TestCleanFramesShareTheDeviceImage(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	pool.SetELSN(1 << 40)
	stored, err := disk.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	loaded := bytes.Clone(stored)

	f, err := pool.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if &f.Page.Bytes()[0] != &stored[0] {
		t.Fatal("a clean frame holds its own copy of the device image")
	}
	if err := f.Page.Insert(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.Page.SetLSN(10)
	pool.MarkDirty(f, 10)
	if img, _ := disk.Read(2); !bytes.Equal(img, loaded) {
		t.Fatal("modifying the frame changed the device image")
	}

	if err := flush(pool, f); err != nil {
		t.Fatal(err)
	}
	flushed, _ := disk.Read(2)
	if !bytes.Equal(flushed, f.Page.Bytes()) {
		t.Fatal("the device image differs from the frame after a flush")
	}
	want := bytes.Clone(flushed)
	if err := f.Page.Insert(8, []byte("y")); err != nil {
		t.Fatal(err)
	}
	f.Page.SetLSN(11)
	pool.MarkDirty(f, 11)
	if img, _ := disk.Read(2); !bytes.Equal(img, want) {
		t.Fatal("modifying a flushed frame changed the flushed image")
	}
	pool.Unpin(f)
}

// TestForkedPoolsMutateOneImageApart: two pools over two forks of one
// frozen disk start from the same shared image of a page and each
// change it on its own; neither change shows in the other fork or the
// parent.
func TestForkedPoolsMutateOneImageApart(t *testing.T) {
	_, base, _ := newPoolEnv(t, 1)
	seed(t, base, 1)
	orig, _ := base.Read(2)
	orig = bytes.Clone(orig)
	forks := []*storage.Disk{base.Fork(&sim.Clock{}), base.Fork(&sim.Clock{})}
	base.Freeze()
	for i, d := range forks {
		pool, err := New(d, 4)
		if err != nil {
			t.Fatal(err)
		}
		pool.SetELSN(1 << 40)
		f, err := pool.Get(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Page.Insert(100, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		pool.MarkDirty(f, 10)
		pool.Unpin(f)
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range forks {
		img, _ := d.Read(2)
		p := page.WrapShared(img)
		idx, found := p.Search(100)
		if !found || p.ValueAt(idx)[0] != byte('a'+i) {
			t.Fatalf("fork %d lost its own change to page 2", i)
		}
	}
	if img, _ := base.Read(2); !bytes.Equal(img, orig) {
		t.Fatal("a fork's change reached the frozen parent's image")
	}
}

func TestDropDiscardsWithoutFlush(t *testing.T) {
	_, disk, pool := newPoolEnv(t, 4)
	seed(t, disk, 1)
	pool.SetELSN(1 << 40)
	f, _ := pool.Get(2)
	pool.MarkDirty(f, 5)
	pool.Unpin(f)
	before := pool.Stats().Flushes
	pool.drop(2)
	if pool.Contains(2) {
		t.Fatal("drop left the page cached")
	}
	if pool.Stats().Flushes != before {
		t.Fatal("drop flushed")
	}
}
