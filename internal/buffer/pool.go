// Package buffer implements the DC's database cache: a fixed-capacity
// page buffer pool with second-chance clock replacement and a
// lazywriter (the SQL-Server-style cache the paper's experiments
// assume), dirty tracking, the SQL-Server penultimate-checkpoint bit
// (§3.2 of the paper), the write-ahead-log protocol (a page may be
// flushed only when every update it carries is on the stable TC log,
// enforced via the EOSL-provided eLSN), and asynchronous prefetch.
//
// One mutex guards the pool's bookkeeping. Miss reads and flush writes
// release it for the duration of the IO, on every device — a miss
// admits a pinned `loading` placeholder first, a flush marks the frame
// `flushing` — so a read or write of one page does not stall traffic to
// the others. Whoever meets a frame mid-IO waits on the pool's one
// condition variable, which every finished IO broadcasts. Every path
// that retakes the latch revalidates what it looked at before letting
// go.
//
// A clean frame holds no bytes of its own. Every device read is wrapped
// as a shared page (page.WrapShared), and a flush hands the frame's own
// bytes to the device and marks the page shared again, so the frame and
// the device hold one image until the page's next mutation copies it.
// No one pins a frame mid-flush, so only a holder of an earlier pin can
// mutate it while the write is in flight; that mutation copies too.
//
// Rebuilding this cache after a crash is the dominant cost of redo
// recovery (§1.3, Appendix B); the pool therefore exposes detailed fetch
// and flush statistics for the experiment harness.
package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// Frame is a cached page. The page view lives inside the frame, and
// the frame is its own clock-ring element, so a resident page costs one
// 80-byte allocation besides its image; the fields are ordered so the
// small ones pack into the last word.
type Frame struct {
	// Page is the cached page. Callers take its address (&f.Page): a
	// copy of the view would not see the frame's later mutations.
	Page page.Page

	// RecLSN is the LSN of the first operation that dirtied the frame
	// since it was last clean (the recovery LSN of §2.2).
	RecLSN wal.LSN
	// LastLSN is the LSN of the latest operation applied to the frame.
	LastLSN wal.LSN

	// prev and next link the frame into the pool's clock ring, in
	// admission order; the ring's ends hold nil.
	prev, next *Frame

	// PID is the cached page's ID; pins counts its holders.
	PID  storage.PageID
	pins int32

	// loading is set while the frame's disk read is in flight with the
	// latch released, and flushing while its flush write is. Getters and
	// flushers of the frame wait on Pool.ioDone meanwhile: they issue no
	// duplicate IO, and no one pins a frame mid-flush.
	loading, flushing bool

	// Dirty reports whether the frame holds updates not yet on disk.
	Dirty bool
	// CkptBit is the value of the pool's checkpoint bit when the frame
	// was last dirtied; the penultimate scheme flushes only frames
	// dirtied before begin-checkpoint (§3.2).
	CkptBit bool
	// ref is the second-chance reference bit: set on every touch,
	// cleared by the eviction sweep.
	ref bool
}

// evictable reports whether f may be evicted or cold-flushed right now:
// unpinned, fully loaded and not mid-flush.
func evictable(f *Frame) bool {
	return f.pins == 0 && !f.loading && !f.flushing
}

// Stats counts pool activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	DirtyEvict int64 // evictions that had to flush first
	Flushes    int64
	LogForces  int64 // WAL-protocol log forces triggered by flushes
	NewPages   int64
}

// HitRatio returns Hits/(Hits+Misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Pool is the buffer pool. Frame *contents* are owned by whoever holds
// the page pinned (the DC serializes data operations behind its shard's
// session plane); the pool's own bookkeeping is guarded by one latch,
// so Get is safe under concurrent sessions and recovery workers.
type Pool struct {
	disk     storage.Device
	capacity int

	// eLSN is the TC's end of stable log (EOSL) as a wal.LSN: one past
	// the last stable byte, so a record is stable iff its LSN < eLSN. A
	// dirty frame with LastLSN >= eLSN cannot be flushed until the log
	// is forced. Monotonic; advanced by CAS so no latch is needed.
	eLSN atomic.Uint64

	// mu guards every field below. Internal helpers (ensureRoom,
	// maybeClean, flushFrame, pinCached) assume it is held; miss reads
	// and flushFrame release it across the IO, and pinCached and
	// flushFrame release it while they wait for another's IO.
	mu sync.Mutex
	// ioDone, over mu, is broadcast whenever a frame's read or write
	// finishes: a waiter rechecks the frame's loading or flushing flag.
	ioDone sync.Cond

	// frames maps a PID to its cached frame.
	frames storage.Table[*Frame]

	// head and tail are the ends of the second-chance clock ring, which
	// links every frame in insertion order through Frame.prev/next.
	// hand is the eviction sweep's position; lazyHand is the
	// lazywriter's, so background cleaning round-robins independently
	// of eviction. A nil hand starts over at head.
	head, tail     *Frame
	hand, lazyHand *Frame

	// ckptBit is flipped when a begin-checkpoint record is written;
	// frames dirtied afterward carry the new value and are not flushed
	// by that checkpoint.
	ckptBit bool

	// dirty counts dirty frames (kept incrementally for the lazywriter).
	dirty int

	// forceLog, when set, forces the TC log and returns the new eLSN.
	// Flushing a frame ahead of the stable log calls it (a log force,
	// counted in stats). onFlush is invoked after each page flush IO is
	// issued, with the flush completion time; the ∆- and BW-trackers
	// subscribe (§3.3, §4.1). Both are called with the latch held and
	// must not call back into the pool.
	forceLog func() wal.LSN
	onFlush  func(pid storage.PageID, done sim.Time)

	// The lazywriter emulates SQL Server's background page cleaning,
	// which the paper's dirty-page dynamics assume (Figure 2(b): the
	// dirty cache fraction sits near 30% at small caches and falls
	// toward 10% at large ones). It has two terms:
	//
	//   - a rate term: every cleanerEvery-th page dirtying flushes one
	//     cold dirty page (write-behind at a fraction of the update
	//     rate), active whenever the dirty count exceeds a small floor;
	//   - a ceiling term: when the dirty count exceeds
	//     cleanerTarget*capacity, cold dirty pages are flushed until it
	//     no longer does.
	//
	// cleanerTarget = 0 disables both.
	cleanerTarget float64
	cleanerEvery  int
	cleanerTick   int
	// cleanerSuspended holds the lazywriter off during critical
	// sections that reserve an LSN before appending (SMO builds): a
	// background flush there could let the flush tracker append its
	// own record in between, invalidating the reservation.
	cleanerSuspended bool

	stats Stats
}

// New creates a pool of capacity pages over disk.
func New(disk storage.Device, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity must be at least 1, got %d", capacity)
	}
	p := &Pool{disk: disk, capacity: capacity}
	p.ioDone.L = &p.mu
	return p, nil
}

// Disk returns the underlying storage device (for prefetch pacing and
// IO statistics).
func (p *Pool) Disk() storage.Device { return p.disk }

// SetFlushHook subscribes fn to flush completions.
func (p *Pool) SetFlushHook(fn func(pid storage.PageID, done sim.Time)) {
	p.mu.Lock()
	p.onFlush = fn
	p.mu.Unlock()
}

// SetLogForce installs the WAL-protocol log-force callback.
func (p *Pool) SetLogForce(fn func() wal.LSN) {
	p.mu.Lock()
	p.forceLog = fn
	p.mu.Unlock()
}

// SetELSN records a new end-of-stable-log from the TC's EOSL control
// operation. eLSN never moves backward. Safe from any goroutine (the
// group-commit flusher publishes EOSL without holding any plane).
func (p *Pool) SetELSN(lsn wal.LSN) {
	for {
		cur := p.eLSN.Load()
		if uint64(lsn) <= cur || p.eLSN.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// ELSN returns the pool's view of the end of the stable TC log.
func (p *Pool) ELSN() wal.LSN { return wal.LSN(p.eLSN.Load()) }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns the pool statistics.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// SetCleanerTarget sets the lazywriter's dirty-fraction ceiling
// (0 disables the lazywriter entirely).
func (p *Pool) SetCleanerTarget(frac float64) {
	p.mu.Lock()
	p.cleanerTarget = frac
	p.mu.Unlock()
}

// SetCleanerRate sets the rate term: one background flush per every
// cleanerEvery page dirtyings (0 disables the rate term).
func (p *Pool) SetCleanerRate(every int) {
	p.mu.Lock()
	p.cleanerEvery = every
	p.mu.Unlock()
}

// SuspendCleaner holds the lazywriter off until ResumeCleaner.
func (p *Pool) SuspendCleaner() {
	p.mu.Lock()
	p.cleanerSuspended = true
	p.mu.Unlock()
}

// ResumeCleaner re-enables the lazywriter and runs a catch-up pass.
func (p *Pool) ResumeCleaner() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cleanerSuspended = false
	p.maybeClean()
}

// DirtyCount returns the number of dirty frames — the quantity Figure
// 2(b) reports as a percentage of the cache.
func (p *Pool) DirtyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirty
}

// PinnedCount returns the number of frames currently pinned (test
// oracle for pin leaks and for the bulk loader's spine bound).
func (p *Pool) PinnedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for f := p.head; f != nil; f = f.next {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

// Get returns the frame for pid, fetching from disk on a miss (which
// advances the virtual clock per the disk model) and evicting as
// needed. The frame is pinned; callers must Unpin.
//
// The latch is released for the duration of the miss read: the frame is
// admitted first as a pinned "loading" placeholder so concurrent getters
// of the same page wait for the one IO instead of duplicating it, and
// getters of other pages proceed — which is what lets parallel redo
// workers overlap their page fetches on a real device.
func (p *Pool) Get(pid storage.PageID) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.pinCached(pid); f != nil {
		p.stats.Hits++
		return f, nil
	}
	p.stats.Misses++
	for {
		if err := p.ensureRoom(); err != nil {
			return nil, err
		}
		// ensureRoom releases the latch while it flushes a dirty victim:
		// another getter may have cached pid meanwhile (share its frame;
		// a second one would orphan the first) or taken the room just
		// made.
		if f := p.pinCached(pid); f != nil {
			return f, nil
		}
		if p.frames.Len() < p.capacity {
			break
		}
	}
	f := &Frame{PID: pid, pins: 1, loading: true}
	p.admit(f)
	p.mu.Unlock()
	data, err := p.disk.Read(pid)
	p.mu.Lock()
	f.loading = false
	p.ioDone.Broadcast()
	if err != nil {
		p.removeFrame(f)
		return nil, err
	}
	f.Page = *page.WrapShared(data)
	return f, nil
}

// pinCached pins and touches pid's frame if it is cached, waiting out a
// read or write in flight, and returns nil if it is not. Caller holds
// p.mu; the wait releases it.
//
// A frame mid-flush is not pinned until its write is done and the flush
// hook has run: an update applied meanwhile would be missing from the
// written image, yet the trackers would record the write under an end
// of stable log the update's record may already lie below, and recovery
// would prune the page's DPT entry and skip the update's redo.
func (p *Pool) pinCached(pid storage.PageID) *Frame {
	for {
		f, ok := p.frames.Get(pid)
		if !ok {
			return nil
		}
		if f.loading || f.flushing {
			p.ioDone.Wait()
			// Re-lookup: the load may have failed and removed the frame,
			// or the flush may have ended in its eviction.
			continue
		}
		f.pins++
		f.ref = true
		return f
	}
}

// admit inserts f into the page table and at the back of the clock
// ring, referenced. Caller holds p.mu.
func (p *Pool) admit(f *Frame) {
	f.ref = true
	f.prev, f.next = p.tail, nil
	if p.tail != nil {
		p.tail.next = f
	} else {
		p.head = f
	}
	p.tail = f
	p.frames.Set(f.PID, f)
}

// removeFrame unlinks f from the page table and the clock ring, moving
// either hand off it. Caller holds p.mu.
func (p *Pool) removeFrame(f *Frame) {
	if f.Dirty {
		p.dirty--
	}
	if p.hand == f {
		p.hand = f.next
	}
	if p.lazyHand == f {
		p.lazyHand = f.next
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.tail = f.prev
	}
	f.prev, f.next = nil, nil
	p.frames.Delete(f.PID)
}

// mapped reports whether f is the frame the page table holds for its
// page — false once it has been evicted or dropped. Caller holds p.mu.
func (p *Pool) mapped(f *Frame) bool {
	g, _ := p.frames.Get(f.PID)
	return g == f
}

// ResidentLSN reports the pLSN of pid's cached frame without pinning
// it, counting a hit or touching replacement state (a test oracle); ok
// is false when pid is not cached or its read is still in flight. The
// caller must know no one is writing the page.
func (p *Pool) ResidentLSN(pid storage.PageID) (lsn uint64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames.Get(pid)
	if !ok || f.loading {
		return 0, false
	}
	return f.Page.LSN(), true
}

// Contains reports whether pid is cached, without touching replacement
// state.
func (p *Pool) Contains(pid storage.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames.Get(pid)
	return ok
}

// NewPage allocates a pinned frame for a brand-new page (no disk read)
// formatted as type t. Used by B-tree page allocation.
func (p *Pool) NewPage(pid storage.PageID, t page.Type) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.frames.Get(pid); ok {
		return nil, fmt.Errorf("buffer: NewPage of cached page %d", pid)
	}
	if err := p.ensureRoom(); err != nil {
		return nil, err
	}
	// Re-lookup: ensureRoom may have released the latch (see Get).
	if _, ok := p.frames.Get(pid); ok {
		return nil, fmt.Errorf("buffer: NewPage of cached page %d", pid)
	}
	p.stats.NewPages++
	f := &Frame{PID: pid, Page: *page.New(p.disk.Config().PageSize, t), pins: 1}
	p.admit(f)
	return f, nil
}

// Unpin releases one pin on f.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", f.PID))
	}
	f.pins--
}

// MarkDirty records that the operation at lsn updated f. The caller has
// already applied the change and set the page's pLSN. Crossing the
// lazywriter's ceiling triggers background cleaning of cold dirty
// pages.
func (p *Pool) MarkDirty(f *Frame, lsn wal.LSN) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !f.Dirty {
		f.Dirty = true
		f.RecLSN = lsn
		f.CkptBit = p.ckptBit
		p.dirty++
	}
	f.LastLSN = lsn
	p.maybeClean()
}

// maybeClean is the lazywriter. The rate term writes behind the update
// stream at a fixed fraction of the dirtying rate; the ceiling term
// bounds the dirty count outright.
func (p *Pool) maybeClean() {
	if p.cleanerTarget <= 0 || p.cleanerSuspended {
		return
	}
	want := 0
	if p.cleanerEvery > 0 {
		p.cleanerTick++
		if p.cleanerTick >= p.cleanerEvery {
			p.cleanerTick = 0
			// Rate-term flush, unless the cache is nearly clean (no
			// point churning the last few dirty pages).
			if p.dirty > p.capacity/20 {
				want = 1
			}
		}
	}
	ceiling := int(p.cleanerTarget * float64(p.capacity))
	if over := p.dirty - ceiling; over > want {
		want = over
	}
	if want > 0 {
		p.sweepCold(want)
	}
}

// sweepCold scans at most one revolution from the lazywriter hand,
// flushing up to want cold dirty frames. A sweep that finds nothing
// flushable gives up for this call; the checkpoint will retry.
// flushFrame may release the latch; removeFrame keeps the hand valid.
func (p *Pool) sweepCold(want int) {
	scanned := 0
	for want > 0 && scanned < p.frames.Len() {
		f := p.lazyHand
		if f == nil {
			f = p.head
		}
		if f == nil {
			return
		}
		p.lazyHand = f.next
		scanned++
		if !f.Dirty || !evictable(f) {
			continue
		}
		if err := p.flushFrame(f); err != nil {
			return
		}
		want--
	}
}

// victim runs the clock sweep: two full revolutions suffice — the first
// clears reference bits, the second finds a victim unless everything is
// pinned or in flight. It returns nil then. The caller flushes and
// removes the victim.
func (p *Pool) victim() *Frame {
	limit := 2*p.frames.Len() + 1
	for i := 0; i < limit; i++ {
		f := p.hand
		if f == nil {
			f = p.head
		}
		if f == nil {
			return nil
		}
		p.hand = f.next
		if !evictable(f) {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f
	}
	return nil
}

// ensureRoom evicts one unpinned, unreferenced frame if the pool is
// full, flushing it first when dirty. Caller holds p.mu; a dirty
// eviction releases it across the write, so the loop revalidates the
// victim after each flush.
func (p *Pool) ensureRoom() error {
	for attempt := 0; attempt < 2*p.capacity+2; attempt++ {
		if p.frames.Len() < p.capacity {
			return nil
		}
		f := p.victim()
		if f == nil {
			return fmt.Errorf("buffer: all %d frames pinned, cannot evict", p.capacity)
		}
		if f.Dirty {
			p.stats.DirtyEvict++
			if err := p.flushFrame(f); err != nil {
				return err
			}
			// The latch may have been released mid-flush: the frame can
			// have been re-pinned, re-dirtied or evicted by someone
			// else. Revalidate before removal.
			if !p.mapped(f) || f.Dirty || !evictable(f) {
				continue
			}
		}
		p.stats.Evictions++
		p.removeFrame(f)
		return nil
	}
	return fmt.Errorf("buffer: all %d frames pinned, cannot evict", p.capacity)
}

// flushFrame writes f to disk, honouring the WAL protocol: if f carries
// updates beyond the stable log, the log is forced first. The flush
// hook fires with the write's completion time. The caller holds p.mu.
// The log-force and flush-hook callbacks are invoked while the latch is
// held; they append to the (internally locked) WAL and feed the
// tracker, neither of which calls back into the pool. The latch is
// released across the page write itself: the device gets the frame's
// own bytes, the page is marked shared first so a mutation meanwhile
// copies them, and the frame carries a `flushing` marker so getters and
// concurrent flushers wait and the eviction sweep skips it. Only a
// holder of an earlier pin can mutate the frame mid-write — a
// checkpoint's flush of a pinned page, which the engine runs with every
// session quiesced; a frame so re-dirtied stays dirty.
func (p *Pool) flushFrame(f *Frame) error {
	for f.flushing {
		p.ioDone.Wait()
	}
	if !f.Dirty || !p.mapped(f) {
		return nil
	}
	// eLSN is an exclusive end: the record at LastLSN is stable only
	// when LastLSN < eLSN. NilLSN marks the unlogged bulk load.
	if f.LastLSN != wal.NilLSN && f.LastLSN >= p.ELSN() {
		if p.forceLog == nil {
			return fmt.Errorf("buffer: WAL violation flushing page %d: LastLSN %v >= eLSN %v and no log force installed",
				f.PID, f.LastLSN, p.ELSN())
		}
		p.stats.LogForces++
		p.SetELSN(p.forceLog())
		if f.LastLSN >= p.ELSN() {
			return fmt.Errorf("buffer: WAL violation persists for page %d after log force: LastLSN %v >= eLSN %v",
				f.PID, f.LastLSN, p.ELSN())
		}
	}
	onFlush := p.onFlush
	f.flushing = true
	data, lsn := f.Page.Bytes(), f.LastLSN
	f.Page.MarkShared()
	p.mu.Unlock()
	done, err := p.disk.Write(f.PID, data)
	p.mu.Lock()
	f.flushing = false
	p.ioDone.Broadcast()
	if err != nil {
		return err
	}
	if f.Dirty && f.LastLSN == lsn {
		f.Dirty = false
		f.RecLSN = wal.NilLSN
		p.dirty--
	}
	p.stats.Flushes++
	if onFlush != nil {
		onFlush(f.PID, done)
	}
	return nil
}

// BeginCheckpointFlip flips the checkpoint bit; pages dirtied from now
// on carry the new value and are exempt from the in-progress
// checkpoint's flushing (§3.2).
func (p *Pool) BeginCheckpointFlip() {
	p.mu.Lock()
	p.ckptBit = !p.ckptBit
	p.mu.Unlock()
}

// FlushForCheckpoint flushes every dirty frame dirtied before the most
// recent BeginCheckpointFlip (old bit value). On return, all updates
// logged before the begin-checkpoint record are stable.
func (p *Pool) FlushForCheckpoint() error {
	return p.flushWhere(func(f *Frame) bool { return f.CkptBit != p.ckptBit })
}

// FlushAll flushes every dirty frame (clean shutdown; test oracles).
func (p *Pool) FlushAll() error {
	return p.flushWhere(func(*Frame) bool { return true })
}

// flushWhere flushes every dirty frame matching keep (which runs under
// the latch). Candidates are collected first, then flushed with
// revalidation — flushFrame releases the latch across each write, so a
// candidate may have been flushed or evicted by someone else
// meanwhile. They are flushed in page order (the table's walk
// order): the flush batches the tracker logs, and so the log's bytes (a
// batch's written pages are gaps), are then the same on every run.
func (p *Pool) flushWhere(keep func(f *Frame) bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	cands := make([]*Frame, 0, p.dirty)
	p.frames.Range(func(_ storage.PageID, f *Frame) bool {
		if f.Dirty && keep(f) {
			cands = append(cands, f)
		}
		return true
	})
	for _, f := range cands {
		if !p.mapped(f) || !f.Dirty || !keep(f) {
			continue
		}
		if err := p.flushFrame(f); err != nil {
			return err
		}
	}
	return nil
}

// Prefetch issues asynchronous reads for the uncached pages among pids,
// bounded so outstanding prefetched pages fit the pool's free frames
// (clamped at zero — in-flight reads can momentarily exceed the frames
// a busy pool has spare). It returns consumed, how many of the input
// pids were handled — issued or skipped because already cached — so
// pacing cursors know where to resume, and issued, how many read IOs
// were actually sent. consumed < len(pids) means the pool has no room;
// consumed > 0 with issued == 0 means progress without IO (the pages
// were already cached), which the redo pacer treats as advance, not
// back-pressure.
func (p *Pool) Prefetch(pids []storage.PageID) (consumed, issued int) {
	p.mu.Lock()
	free := max(p.capacity-p.frames.Len()-p.disk.InflightCount(), 0)
	var want []storage.PageID
	for i, pid := range pids {
		if _, ok := p.frames.Get(pid); ok {
			consumed++
			continue
		}
		if len(want) >= free {
			break
		}
		if want == nil {
			want = make([]storage.PageID, 0, min(len(pids)-i, free))
		}
		want = append(want, pid)
		consumed++
	}
	p.mu.Unlock()
	p.disk.Prefetch(want)
	return consumed, len(want)
}
