// Package buffer implements the DC's database cache: a fixed-capacity
// page buffer pool with pluggable replacement (second-chance clock by
// default, a scan-resistant 2Q-style alternative — see policy.go),
// dirty tracking, the SQL-Server penultimate-checkpoint bit (§3.2 of
// the paper), the write-ahead-log protocol (a page may be flushed only
// when every update it carries is on the stable TC log, enforced via
// the EOSL-provided eLSN), and asynchronous prefetch.
//
// The pool is internally latch-sharded: capacity is divided across
// Config.LatchShards PID-hashed sub-pools, each with its own mutex,
// frame map, sweep state, lazywriter hand and statistics, so concurrent
// sessions (and parallel redo workers) touching different pages contend
// only per sub-pool. Cross-cutting state — the stable-log watermark
// eLSN, the aggregate dirty and resident counts — lives in atomics;
// checkpoint and shutdown flushes iterate the sub-pools one latch at a
// time, never holding a global lock. When the device is in real-IO
// mode, flush writes release the sub-pool latch for the duration of the
// IO (mirroring the `loading` placeholder pattern miss reads use), so a
// checkpoint or eviction writing one page does not stall readers of the
// other pages in its sub-pool.
//
// Rebuilding this cache after a crash is the dominant cost of redo
// recovery (§1.3, Appendix B); the pool therefore exposes detailed fetch
// and flush statistics for the experiment harness.
package buffer

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// minSubCapacity is the smallest per-sub-pool frame budget: requesting
// more latch shards than capacity/minSubCapacity silently clamps, so a
// tiny pool (recovery forks can run with 8 pages per shard) degenerates
// to the single-latch pool instead of sub-pools too small to hold a
// root-to-leaf pin chain.
const minSubCapacity = 8

// Config parameterises a pool beyond its capacity.
type Config struct {
	// LatchShards is the number of PID-hashed sub-pools the capacity
	// and latching are split across (0 and 1 both mean one sub-pool,
	// the original single-latch pool). Clamped so every sub-pool keeps
	// at least 8 frames.
	LatchShards int
	// Policy names the eviction policy: "" or "clock" for the
	// second-chance clock, "2q" for the scan-resistant two-segment
	// policy (see policy.go).
	Policy string
}

// Frame is a cached page.
type Frame struct {
	PID  storage.PageID
	Page *page.Page

	// Dirty reports whether the frame holds updates not yet on disk.
	Dirty bool
	// RecLSN is the LSN of the first operation that dirtied the frame
	// since it was last clean (the recovery LSN of §2.2).
	RecLSN wal.LSN
	// LastLSN is the LSN of the latest operation applied to the frame.
	LastLSN wal.LSN
	// CkptBit is the value of the pool's checkpoint bit when the frame
	// was last dirtied; the penultimate scheme flushes only frames
	// dirtied before begin-checkpoint (§3.2).
	CkptBit bool

	// ref is the second-chance reference bit: set on every touch,
	// cleared by the eviction sweep.
	ref bool
	// seg is the twoQPolicy segment the frame resides in.
	seg  int8
	pins int
	elem *list.Element

	// loading is non-nil while the frame's disk read is in flight with
	// the sub-pool latch released (real-IO mode); it is closed when the
	// read completes. Concurrent getters of the same page wait on it
	// instead of issuing a duplicate read.
	loading chan struct{}

	// flushing is non-nil while the frame's flush write is in flight
	// with the sub-pool latch released (real-IO mode); it is closed
	// when the write completes. Concurrent flushers of the same frame
	// wait on it instead of issuing a duplicate write.
	flushing chan struct{}
}

// Stats counts pool activity (summed across sub-pools).
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

// poolHooks bundles the pool-wide callbacks so the hot path loads them
// with one atomic read.
type poolHooks struct {
	// forceLog, when set, forces the TC log and returns the new eLSN.
	// Flushing a frame ahead of the stable log calls it (a log force,
	// counted in stats).
	forceLog func() wal.LSN
	// onFlush is invoked after each page flush IO is issued, with the
	// flush completion time; the ∆- and BW-trackers subscribe (§3.3,
	// §4.1).
	onFlush func(pid storage.PageID, done sim.Time)
}

// Pool is the buffer pool. Frame *contents* are owned by whoever holds
// the page pinned (the DC serializes data operations behind its shard's
// session plane); the pool's own bookkeeping is guarded per sub-pool,
// so the hot lookup path (Get / GetIfCached) is safe under concurrent
// sessions and contends only with traffic hashing to the same sub-pool.
type Pool struct {
	disk     storage.Device
	capacity int
	subs     []*subPool

	// eLSN is the TC's end of stable log (EOSL) as a wal.LSN: one past
	// the last stable byte, so a record is stable iff its LSN < eLSN. A
	// dirty frame with LastLSN >= eLSN cannot be flushed until the log
	// is forced. Monotonic; advanced by CAS so no latch is needed.
	eLSN atomic.Uint64

	// dirtyTotal and resident are the aggregate dirty-frame and
	// cached-frame counts across sub-pools, kept incrementally so
	// DirtyCount/Len/Prefetch need no latches.
	dirtyTotal atomic.Int64
	resident   atomic.Int64

	hooks atomic.Pointer[poolHooks]

	// The lazywriter emulates SQL Server's background page cleaning,
	// which the paper's dirty-page dynamics assume (Figure 2(b): the
	// dirty cache fraction sits near 30% at small caches and falls
	// toward 10% at large ones). It has two terms, evaluated per
	// sub-pool against the sub-pool's share of capacity:
	//
	//   - a rate term: every cleanerEvery-th page dirtying flushes one
	//     cold dirty page (write-behind at a fraction of the update
	//     rate), active whenever the dirty count exceeds a small floor;
	//   - a ceiling term: when the dirty count exceeds
	//     cleanerTarget*capacity, cold dirty pages are flushed until it
	//     no longer does.
	//
	// cleanerTarget = 0 disables both.
	cleanerTarget atomicFloat64
	cleanerEvery  atomic.Int64
	// cleanerSuspended holds the lazywriter off during critical
	// sections that reserve an LSN before appending (SMO builds): a
	// background flush there could let the flush tracker append its
	// own record in between, invalidating the reservation.
	cleanerSuspended atomic.Bool
}

// atomicFloat64 stores a float64 via its bit pattern.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// subPool is one PID-hashed latch shard of the pool: its own mutex,
// frame map, eviction-policy instance, checkpoint bit, dirty count,
// lazywriter tick and statistics.
type subPool struct {
	p        *Pool
	capacity int

	// mu guards every field below. Internal helpers (ensureRoom,
	// maybeClean, flushFrame) assume it is held; flushFrame and miss
	// reads release it across real-mode IO waits.
	mu sync.Mutex

	frames map[storage.PageID]*Frame
	pol    evictPolicy

	// ckptBit is this sub-pool's copy of the bit flipped when a
	// begin-checkpoint record is written; frames dirtied afterward
	// carry the new value and are not flushed by that checkpoint.
	ckptBit bool

	// dirty counts dirty frames (kept incrementally for the cleaner).
	dirty       int
	cleanerTick int

	stats Stats
}

// New creates a pool of capacity pages over disk with the default
// configuration (one latch, clock replacement) — the pool the paper's
// virtual-time experiments assume.
func New(disk storage.Device, capacity int) (*Pool, error) {
	return NewWithConfig(disk, capacity, Config{})
}

// NewWithConfig creates a pool of capacity pages over disk, sharded and
// policied per cfg.
func NewWithConfig(disk storage.Device, capacity int, cfg Config) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity must be at least 1, got %d", capacity)
	}
	if cfg.LatchShards < 0 {
		return nil, fmt.Errorf("buffer: LatchShards must be >= 0, got %d", cfg.LatchShards)
	}
	if !KnownPolicy(cfg.Policy) {
		return nil, fmt.Errorf("buffer: unknown eviction policy %q (have %q, %q)", cfg.Policy, PolicyClock, Policy2Q)
	}
	n := cfg.LatchShards
	if n <= 0 {
		n = 1
	}
	if maxN := capacity / minSubCapacity; n > maxN {
		n = maxN
		if n < 1 {
			n = 1
		}
	}
	p := &Pool{disk: disk, capacity: capacity, subs: make([]*subPool, n)}
	p.hooks.Store(&poolHooks{})
	base, extra := capacity/n, capacity%n
	for i := range p.subs {
		c := base
		if i < extra {
			c++
		}
		p.subs[i] = &subPool{
			p:        p,
			capacity: c,
			frames:   make(map[storage.PageID]*Frame, c),
			pol:      newPolicy(cfg.Policy, c),
		}
	}
	return p, nil
}

// sub routes a page to its latch shard.
func (p *Pool) sub(pid storage.PageID) *subPool {
	return p.subs[int(uint32(pid))%len(p.subs)]
}

// Disk returns the underlying storage device (for prefetch pacing and
// IO statistics).
func (p *Pool) Disk() storage.Device { return p.disk }

// Policy returns the eviction policy name ("clock" or "2q").
func (p *Pool) Policy() string { return p.subs[0].pol.name() }

// LatchShards returns the number of latch shards the pool runs with
// (after clamping against capacity).
func (p *Pool) LatchShards() int { return len(p.subs) }

// SetFlushHook subscribes fn to flush completions.
func (p *Pool) SetFlushHook(fn func(pid storage.PageID, done sim.Time)) {
	for {
		old := p.hooks.Load()
		h := *old
		h.onFlush = fn
		if p.hooks.CompareAndSwap(old, &h) {
			return
		}
	}
}

// SetLogForce installs the WAL-protocol log-force callback.
func (p *Pool) SetLogForce(fn func() wal.LSN) {
	for {
		old := p.hooks.Load()
		h := *old
		h.forceLog = fn
		if p.hooks.CompareAndSwap(old, &h) {
			return
		}
	}
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

// Len returns the number of cached pages.
func (p *Pool) Len() int { return int(p.resident.Load()) }

// Stats returns the pool statistics summed across sub-pools.
func (p *Pool) Stats() Stats {
	var out Stats
	for _, sp := range p.subs {
		sp.mu.Lock()
		s := sp.stats
		sp.mu.Unlock()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Evictions += s.Evictions
		out.DirtyEvict += s.DirtyEvict
		out.Flushes += s.Flushes
		out.LogForces += s.LogForces
		out.NewPages += s.NewPages
	}
	return out
}

// ResetStats zeroes the statistics.
func (p *Pool) ResetStats() {
	for _, sp := range p.subs {
		sp.mu.Lock()
		sp.stats = Stats{}
		sp.mu.Unlock()
	}
}

// SetCleanerTarget sets the lazywriter's dirty-fraction ceiling
// (0 disables the lazywriter entirely).
func (p *Pool) SetCleanerTarget(frac float64) { p.cleanerTarget.Store(frac) }

// SetCleanerRate sets the rate term: one background flush per every
// cleanerEvery page dirtyings (0 disables the rate term).
func (p *Pool) SetCleanerRate(every int) { p.cleanerEvery.Store(int64(every)) }

// SuspendCleaner holds the lazywriter off until ResumeCleaner.
func (p *Pool) SuspendCleaner() { p.cleanerSuspended.Store(true) }

// ResumeCleaner re-enables the lazywriter and runs a catch-up pass.
func (p *Pool) ResumeCleaner() {
	p.cleanerSuspended.Store(false)
	for _, sp := range p.subs {
		sp.mu.Lock()
		sp.maybeClean()
		sp.mu.Unlock()
	}
}

// DirtyCount returns the number of dirty frames — the quantity Figure
// 2(b) reports as a percentage of the cache.
func (p *Pool) DirtyCount() int { return int(p.dirtyTotal.Load()) }

// DirtyPIDs returns the PIDs of all dirty frames (test oracle for DPT
// safety).
func (p *Pool) DirtyPIDs() []storage.PageID {
	out := make([]storage.PageID, 0, 16)
	for _, sp := range p.subs {
		sp.mu.Lock()
		for pid, f := range sp.frames {
			if f.Dirty {
				out = append(out, pid)
			}
		}
		sp.mu.Unlock()
	}
	return out
}

// PinnedCount returns the number of frames currently pinned (test
// oracle for pin leaks and for the bulk loader's spine bound).
func (p *Pool) PinnedCount() int {
	n := 0
	for _, sp := range p.subs {
		sp.mu.Lock()
		for _, f := range sp.frames {
			if f.pins > 0 {
				n++
			}
		}
		sp.mu.Unlock()
	}
	return n
}

// Get returns the frame for pid, fetching from disk on a miss (which
// advances the virtual clock per the disk model) and evicting as
// needed. The frame is pinned; callers must Unpin.
//
// When the disk is in real-IO mode the sub-pool latch is released for
// the duration of the miss read: the frame is inserted first as a
// pinned "loading" placeholder so concurrent getters of the same page
// wait for the one IO instead of duplicating it, and getters of other
// pages proceed — which is what lets parallel redo workers overlap
// their page fetches in wall-clock time.
func (p *Pool) Get(pid storage.PageID) (*Frame, error) {
	sp := p.sub(pid)
	sp.mu.Lock()
	for {
		f, ok := sp.frames[pid]
		if !ok {
			break
		}
		if f.loading != nil {
			ch := f.loading
			sp.mu.Unlock()
			<-ch
			sp.mu.Lock()
			// Re-lookup: the load may have failed and removed the frame.
			continue
		}
		sp.stats.Hits++
		f.pins++
		sp.pol.touch(f)
		sp.mu.Unlock()
		return f, nil
	}
	sp.stats.Misses++
	if err := sp.ensureRoom(); err != nil {
		sp.mu.Unlock()
		return nil, err
	}
	if p.disk.RealTime() {
		f := &Frame{PID: pid, pins: 1, loading: make(chan struct{})}
		sp.pol.admit(f)
		sp.frames[pid] = f
		p.resident.Add(1)
		sp.mu.Unlock()
		data, err := p.disk.Read(pid)
		sp.mu.Lock()
		close(f.loading)
		f.loading = nil
		if err != nil {
			sp.removeFrame(f)
			sp.mu.Unlock()
			return nil, err
		}
		f.Page = page.Wrap(data)
		sp.mu.Unlock()
		return f, nil
	}
	defer sp.mu.Unlock()
	data, err := p.disk.Read(pid)
	if err != nil {
		return nil, err
	}
	f := &Frame{PID: pid, Page: page.Wrap(data), pins: 1}
	sp.pol.admit(f)
	sp.frames[pid] = f
	p.resident.Add(1)
	return f, nil
}

// removeFrame unlinks f from the page map and the replacement order.
// Caller holds sp.mu.
func (sp *subPool) removeFrame(f *Frame) {
	if f.Dirty {
		sp.dirty--
		sp.p.dirtyTotal.Add(-1)
	}
	sp.pol.remove(f)
	delete(sp.frames, f.PID)
	sp.p.resident.Add(-1)
}

// GetIfCached returns the pinned frame if present, else nil. A frame
// whose read is still in flight counts as absent.
func (p *Pool) GetIfCached(pid storage.PageID) *Frame {
	sp := p.sub(pid)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	f, ok := sp.frames[pid]
	if !ok || f.loading != nil {
		return nil
	}
	sp.stats.Hits++
	f.pins++
	sp.pol.touch(f)
	return f
}

// Contains reports whether pid is cached, without touching replacement
// state.
func (p *Pool) Contains(pid storage.PageID) bool {
	sp := p.sub(pid)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	_, ok := sp.frames[pid]
	return ok
}

// NewPage allocates a pinned frame for a brand-new page (no disk read)
// formatted as type t. Used by B-tree page allocation.
func (p *Pool) NewPage(pid storage.PageID, t page.Type) (*Frame, error) {
	sp := p.sub(pid)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, ok := sp.frames[pid]; ok {
		return nil, fmt.Errorf("buffer: NewPage of cached page %d", pid)
	}
	if err := sp.ensureRoom(); err != nil {
		return nil, err
	}
	sp.stats.NewPages++
	data := make([]byte, p.disk.Config().PageSize)
	f := &Frame{PID: pid, Page: page.Format(data, t), pins: 1}
	sp.pol.admit(f)
	sp.frames[pid] = f
	p.resident.Add(1)
	return f, nil
}

// Unpin releases one pin on f.
func (p *Pool) Unpin(f *Frame) {
	sp := p.sub(f.PID)
	sp.mu.Lock()
	defer sp.mu.Unlock()
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
	sp := p.sub(f.PID)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !f.Dirty {
		f.Dirty = true
		f.RecLSN = lsn
		f.CkptBit = sp.ckptBit
		sp.dirty++
		p.dirtyTotal.Add(1)
	}
	f.LastLSN = lsn
	sp.maybeClean()
}

// maybeClean is the lazywriter, scoped to one sub-pool. The rate term
// writes behind the update stream at a fixed fraction of the dirtying
// rate; the ceiling term bounds the dirty count outright.
func (sp *subPool) maybeClean() {
	p := sp.p
	target := p.cleanerTarget.Load()
	if target <= 0 || p.cleanerSuspended.Load() {
		return
	}
	want := 0
	if every := int(p.cleanerEvery.Load()); every > 0 {
		sp.cleanerTick++
		if sp.cleanerTick >= every {
			sp.cleanerTick = 0
			// Rate-term flush, unless the cache is nearly clean (no
			// point churning the last few dirty pages).
			if sp.dirty > sp.capacity/20 {
				want = 1
			}
		}
	}
	ceiling := int(target * float64(sp.capacity))
	if over := sp.dirty - ceiling; over > want {
		want = over
	}
	if want > 0 {
		sp.pol.sweepCold(want, sp.flushFrame)
	}
}

// ensureRoom evicts one unpinned, unreferenced frame if the sub-pool is
// full, flushing it first when dirty. Caller holds sp.mu; a dirty
// eviction in real-IO mode releases it across the write, so the loop
// revalidates the victim after each flush.
func (sp *subPool) ensureRoom() error {
	for attempt := 0; attempt < 2*sp.capacity+2; attempt++ {
		if len(sp.frames) < sp.capacity {
			return nil
		}
		f := sp.pol.victim()
		if f == nil {
			return fmt.Errorf("buffer: all %d frames pinned, cannot evict", sp.capacity)
		}
		if f.Dirty {
			sp.stats.DirtyEvict++
			if err := sp.flushFrame(f); err != nil {
				return err
			}
			// The latch may have been released mid-flush: the frame can
			// have been re-pinned, re-dirtied or evicted by someone
			// else. Revalidate before removal.
			if sp.frames[f.PID] != f || f.Dirty || !evictable(f) {
				continue
			}
		}
		sp.stats.Evictions++
		sp.removeFrame(f)
		return nil
	}
	return fmt.Errorf("buffer: all %d frames pinned, cannot evict", sp.capacity)
}

// FlushFrame writes f to disk, honouring the WAL protocol: if f carries
// updates beyond the stable log, the log is forced first. The flush
// hook fires with the write's completion time.
func (p *Pool) FlushFrame(f *Frame) error {
	sp := p.sub(f.PID)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.flushFrame(f)
}

// flushFrame is FlushFrame with sp.mu held. The log-force and
// flush-hook callbacks are invoked while the latch is held; they append
// to the (internally locked) WAL and feed the tracker, neither of which
// calls back into the pool. In real-IO mode the latch is released
// across the page write itself — the page bytes are snapshotted under
// the latch and the frame carries a `flushing` marker so concurrent
// flushers wait and the eviction sweep skips it; a frame re-dirtied
// while its old image is in flight simply stays dirty.
func (sp *subPool) flushFrame(f *Frame) error {
	for f.flushing != nil {
		ch := f.flushing
		sp.mu.Unlock()
		<-ch
		sp.mu.Lock()
	}
	if !f.Dirty || sp.frames[f.PID] != f {
		return nil
	}
	p := sp.p
	// eLSN is an exclusive end: the record at LastLSN is stable only
	// when LastLSN < eLSN. NilLSN marks the unlogged bulk load.
	if f.LastLSN != wal.NilLSN && f.LastLSN >= p.ELSN() {
		h := p.hooks.Load()
		if h.forceLog == nil {
			return fmt.Errorf("buffer: WAL violation flushing page %d: LastLSN %v >= eLSN %v and no log force installed",
				f.PID, f.LastLSN, p.ELSN())
		}
		sp.stats.LogForces++
		p.SetELSN(h.forceLog())
		if f.LastLSN >= p.ELSN() {
			return fmt.Errorf("buffer: WAL violation persists for page %d after log force: LastLSN %v >= eLSN %v",
				f.PID, f.LastLSN, p.ELSN())
		}
	}
	onFlush := p.hooks.Load().onFlush
	if p.disk.RealTime() {
		ch := make(chan struct{})
		f.flushing = ch
		snap := append([]byte(nil), f.Page.Bytes()...)
		lsnAtCopy := f.LastLSN
		sp.mu.Unlock()
		done, err := p.disk.Write(f.PID, snap)
		sp.mu.Lock()
		f.flushing = nil
		close(ch)
		if err != nil {
			return err
		}
		if f.Dirty && f.LastLSN == lsnAtCopy {
			f.Dirty = false
			f.RecLSN = wal.NilLSN
			sp.dirty--
			p.dirtyTotal.Add(-1)
		}
		sp.stats.Flushes++
		if onFlush != nil {
			onFlush(f.PID, done)
		}
		return nil
	}
	done, err := p.disk.Write(f.PID, f.Page.Bytes())
	if err != nil {
		return err
	}
	f.Dirty = false
	f.RecLSN = wal.NilLSN
	sp.dirty--
	p.dirtyTotal.Add(-1)
	sp.stats.Flushes++
	if onFlush != nil {
		onFlush(f.PID, done)
	}
	return nil
}

// BeginCheckpointFlip flips the checkpoint bit; pages dirtied from now
// on carry the new value and are exempt from the in-progress
// checkpoint's flushing (§3.2). Sub-pool bits flip one latch at a time;
// the TC holds every shard plane across a checkpoint, so no dirtying
// races the flip.
func (p *Pool) BeginCheckpointFlip() {
	for _, sp := range p.subs {
		sp.mu.Lock()
		sp.ckptBit = !sp.ckptBit
		sp.mu.Unlock()
	}
}

// FlushForCheckpoint flushes every dirty frame dirtied before the most
// recent BeginCheckpointFlip (old bit value). On return, all updates
// logged before the begin-checkpoint record are stable.
func (p *Pool) FlushForCheckpoint() error {
	return p.flushWhere(func(sp *subPool, f *Frame) bool {
		return f.CkptBit != sp.ckptBit
	})
}

// FlushAll flushes every dirty frame (clean shutdown; test oracles).
func (p *Pool) FlushAll() error {
	return p.flushWhere(func(*subPool, *Frame) bool { return true })
}

// flushWhere flushes, sub-pool by sub-pool, every dirty frame matching
// keep. Candidates are collected under the latch, then flushed with
// revalidation — flushFrame can release the latch in real-IO mode, so a
// candidate may have been flushed or evicted by someone else meanwhile.
func (p *Pool) flushWhere(keep func(sp *subPool, f *Frame) bool) error {
	for _, sp := range p.subs {
		sp.mu.Lock()
		cands := make([]*Frame, 0, sp.dirty)
		for _, f := range sp.frames {
			if f.Dirty && keep(sp, f) {
				cands = append(cands, f)
			}
		}
		for _, f := range cands {
			if sp.frames[f.PID] != f || !f.Dirty || !keep(sp, f) {
				continue
			}
			if err := sp.flushFrame(f); err != nil {
				sp.mu.Unlock()
				return err
			}
		}
		sp.mu.Unlock()
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
	free := p.capacity - int(p.resident.Load()) - p.disk.InflightCount()
	if free < 0 {
		free = 0
	}
	want := make([]storage.PageID, 0, len(pids))
	for _, pid := range pids {
		if p.Contains(pid) {
			consumed++
			continue
		}
		if len(want) >= free {
			break
		}
		want = append(want, pid)
		consumed++
	}
	p.disk.Prefetch(want)
	return consumed, len(want)
}

// Drop removes pid from the pool without flushing (crash simulation and
// tests only).
func (p *Pool) Drop(pid storage.PageID) {
	sp := p.sub(pid)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if f, ok := sp.frames[pid]; ok {
		sp.removeFrame(f)
	}
}
