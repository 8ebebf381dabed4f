// Package storage implements the simulated stable-storage substrate: a
// page-addressed disk with a discrete-event latency model and
// copy-on-write forking for side-by-side recovery experiments.
//
// The model follows Appendix B of the paper: recovery performance is
// gated by (i) how many data pages are requested and (ii) how often and
// how long redo waits for them. The disk therefore models:
//
//   - random reads: one seek plus per-page transfer;
//   - block reads: up to MaxBlock contiguous pages in a single IO
//     (SQL Server reads blocks of eight contiguous pages);
//   - a serial service queue: the device completes one IO at a time, so
//     prefetch that outruns the device queues up and synchronous reads
//     behind a deep queue stall longer;
//   - asynchronous prefetch: IOs are issued without advancing the clock;
//     a later Read of an in-flight page advances the clock only to the
//     IO's completion time.
//
// All latencies are virtual (package sim), so results are deterministic.
package storage

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"logrec/internal/sim"
)

// PageID identifies a page on stable storage. PageID 0 is invalid; the
// metadata page is PageID 1.
type PageID uint32

// InvalidPageID is the zero PageID; no page ever has it.
const InvalidPageID PageID = 0

// MetaPageID is the well-known location of the database metadata page.
const MetaPageID PageID = 1

// Config parameterises the disk latency model.
type Config struct {
	// PageSize is the size of every data page in bytes.
	PageSize int
	// SeekTime is the fixed cost to position for a random IO.
	SeekTime sim.Duration
	// TransferPerPage is the additional cost per page moved.
	TransferPerPage sim.Duration
	// WriteSeekTime is the positioning cost for a write IO.
	WriteSeekTime sim.Duration
	// MaxBlock is the largest number of contiguous pages a single read
	// IO may cover (the paper's prototype uses 8).
	MaxBlock int
	// Channels is the device queue depth: how many IOs the device
	// services concurrently (command queueing). Synchronous reads
	// cannot exploit it — the caller blocks per IO — but asynchronous
	// prefetch can, which is where read-ahead's benefit comes from
	// (Appendix A).
	Channels int
}

// DefaultConfig returns the latency model used by the experiment
// defaults: a 4 KB page, 4 ms seeks, 100 µs per-page transfer, 8-page
// block reads and a queue depth of 4.
func DefaultConfig() Config {
	return Config{
		PageSize:        4096,
		SeekTime:        4 * sim.Millisecond,
		TransferPerPage: 100 * sim.Microsecond,
		WriteSeekTime:   2 * sim.Millisecond,
		MaxBlock:        8,
		Channels:        4,
	}
}

func (c Config) validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("storage: PageSize must be positive, got %d", c.PageSize)
	}
	if c.MaxBlock <= 0 {
		return fmt.Errorf("storage: MaxBlock must be positive, got %d", c.MaxBlock)
	}
	if c.SeekTime < 0 || c.TransferPerPage < 0 || c.WriteSeekTime < 0 {
		return fmt.Errorf("storage: latencies must be non-negative")
	}
	if c.Channels <= 0 {
		return fmt.Errorf("storage: Channels must be positive, got %d", c.Channels)
	}
	return nil
}

// Stats counts IO activity. Reads and writes are whole IOs; PagesRead
// and PagesWritten count pages moved (a block read moves several pages
// in one IO).
type Stats struct {
	Reads        int64
	PagesRead    int64
	BlockReads   int64
	Writes       int64
	PagesWritten int64
	// Stalls is the number of synchronous reads that had to wait for
	// the device (IO not already complete when requested).
	Stalls int64
	// StallTime is total virtual time spent waiting on synchronous
	// reads, including waits for previously prefetched pages.
	StallTime sim.Duration
	// PrefetchIOs and PrefetchPages count asynchronously issued IOs.
	PrefetchIOs   int64
	PrefetchPages int64
	// PrefetchHits counts reads satisfied by an already-complete
	// prefetch (no stall).
	PrefetchHits int64
	// Syncs counts durability barriers (Device.Sync calls — fsyncs on a
	// real device).
	Syncs int64
}

// Disk is the simulated stable store. Every IO is charged to the
// virtual clock; none waits in wall-clock time. A mutex makes it safe
// for concurrent use, which parallel redo workers rely on;
// single-threaded virtual-time experiments see identical behaviour (the
// mutex is uncontended there).
type Disk struct {
	clock *sim.Clock
	cfg   Config

	// mu guards pages, channels, inflight, due, frozen and stats.
	mu sync.Mutex

	// base is the copy-on-write parent. Reads fall through to base when
	// the page is absent locally; writes always land locally. base must
	// be frozen (never written) after forking. pages holds the images
	// written here, by PID; a fork's starts empty.
	base  *Disk
	pages Table[[]byte]

	// channels holds the time each device channel frees up; an IO is
	// assigned to the earliest-free channel.
	channels []sim.Time
	inflight map[PageID]sim.Time
	// due orders inflight's IOs by completion time and duePages counts
	// their pages: InflightCount pops, it does not walk the map.
	due      dueHeap
	duePages int

	// frozen marks a forked parent; writes to a frozen disk fail.
	frozen bool

	stats Stats
	hook  IOHook
}

// Disk implements the Device abstraction (device.go); FileDisk is the
// file-backed sibling.
var _ Device = (*Disk)(nil)

// New creates an empty disk governed by clock.
func New(clock *sim.Clock, cfg Config) (*Disk, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("storage: nil clock")
	}
	d := &Disk{
		clock:    clock,
		cfg:      cfg,
		channels: make([]sim.Time, cfg.Channels),
		inflight: make(map[PageID]sim.Time),
	}
	return d, nil
}

// Fork returns a copy-on-write child of d sharing d's current contents.
// The child gets its own clock so forks replay independently. The parent
// must not be written after forking; Freeze enforces this in tests.
func (d *Disk) Fork(clock *sim.Clock) *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &Disk{
		clock:    clock,
		cfg:      d.cfg,
		base:     d,
		channels: make([]sim.Time, d.cfg.Channels),
		inflight: make(map[PageID]sim.Time),
	}
}

// Config returns the disk's latency configuration.
func (d *Disk) Config() Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// Clock returns the virtual clock governing this disk.
func (d *Disk) Clock() *sim.Clock { return d.clock }

// Stats returns a copy of the accumulated IO statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the IO statistics (used between workload and
// recovery phases so recovery IO is measured in isolation).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// SetIOHook subscribes fn to every IO (see Device.SetIOHook). The hook
// fires with the disk lock held; it must not call back into the disk.
func (d *Disk) SetIOHook(fn IOHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = fn
}

// fire reports an IO to the hook. Caller holds d.mu.
func (d *Disk) fire(op IOOp, pages int) {
	if d.hook != nil {
		d.hook(op, pages)
	}
}

// Sync is the durability barrier. Simulated writes are stable at their
// completion time by construction, so Sync only counts — it exists so
// checkpoint and log-force call sites are identical across device
// implementations and their barrier cadence is observable.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Syncs++
	d.fire(OpSync, 0)
	return nil
}

// lookup finds the current content of pid, following the CoW chain.
// Caller holds d.mu; ancestors are frozen (read-only), so walking them
// without their locks is safe.
func (d *Disk) lookup(pid PageID) ([]byte, bool) {
	for cur := d; cur != nil; cur = cur.base {
		if p, ok := cur.pages.Get(pid); ok {
			return p, true
		}
	}
	return nil, false
}

// Exists reports whether pid has ever been written.
func (d *Disk) Exists(pid PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.lookup(pid)
	return ok
}

// Image returns pid's stored image without an IO: no clock charge, no
// statistic, no prefetch claimed (a test oracle). The caller must not
// modify it.
func (d *Disk) Image(pid PageID) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lookup(pid)
}

// NumPages reports the number of distinct pages stored (CoW-merged): a
// page an ancestor holds counts unless a nearer disk holds it too.
func (d *Disk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for cur := d; cur != nil; cur = cur.base {
		cur.pages.Range(func(pid PageID, _ []byte) bool {
			n++
			for near := d; near != cur; near = near.base {
				if _, ok := near.pages.Get(pid); ok {
					n--
					break
				}
			}
			return true
		})
	}
	return n
}

// serviceIO assigns an IO of duration dur to the earliest-free device
// channel and returns its completion time. IOs on the same channel
// serialize; the queue depth bounds concurrency.
func (d *Disk) serviceIO(dur sim.Duration) sim.Time {
	best := 0
	for i := 1; i < len(d.channels); i++ {
		if d.channels[i] < d.channels[best] {
			best = i
		}
	}
	start := d.channels[best]
	if now := d.clock.Now(); now > start {
		start = now
	}
	done := start.Add(dur)
	d.channels[best] = done
	return done
}

func (d *Disk) readCost(pages int) sim.Duration {
	return d.cfg.SeekTime + sim.Duration(pages)*d.cfg.TransferPerPage
}

// Read synchronously fetches pid, advancing the clock to the IO's
// completion. If the page was previously prefetched, the clock advances
// only to the prefetch completion (possibly not at all). It returns the
// stored image itself, which the caller must not modify.
func (d *Disk) Read(pid PageID) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.lookup(pid)
	if !ok {
		return nil, fmt.Errorf("storage: read of unwritten page %d", pid)
	}
	now := d.clock.Now()
	if done, ok := d.inflight[pid]; ok {
		delete(d.inflight, pid)
		if done > now {
			d.stats.Stalls++
			d.stats.StallTime += done.Sub(now)
			d.clock.AdvanceTo(done)
		} else {
			d.stats.PrefetchHits++
		}
		return data, nil
	}
	done := d.serviceIO(d.readCost(1))
	d.stats.Reads++
	d.stats.PagesRead++
	d.stats.Stalls++
	d.fire(OpRead, 1)
	d.stats.StallTime += done.Sub(now)
	d.clock.AdvanceTo(done)
	return data, nil
}

// Prefetch asynchronously issues reads for the given pages, grouping
// contiguous PIDs into block IOs of at most MaxBlock pages. Pages
// already in flight are skipped. The clock does not advance. The caller
// collects each page later with Read, which waits only if the covering
// IO has not yet completed.
func (d *Disk) Prefetch(pids []PageID) {
	if len(pids) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	want := make([]PageID, 0, len(pids))
	for _, pid := range pids {
		if _, inflight := d.inflight[pid]; inflight {
			continue
		}
		if _, ok := d.lookup(pid); !ok {
			continue // nothing stable to read; caller will create the page
		}
		want = append(want, pid)
	}
	if len(want) == 0 {
		return
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	// Group into runs of contiguous PIDs, capped at MaxBlock.
	runStart := 0
	for i := 1; i <= len(want); i++ {
		endOfRun := i == len(want) ||
			want[i] != want[i-1]+1 ||
			i-runStart >= d.cfg.MaxBlock
		if !endOfRun {
			continue
		}
		n := i - runStart
		d.stats.Reads++
		d.stats.PagesRead += int64(n)
		d.stats.PrefetchIOs++
		d.stats.PrefetchPages += int64(n)
		if n > 1 {
			d.stats.BlockReads++
		}
		d.fire(OpPrefetch, n)
		// A page requested twice ends this run and opens the next, whose
		// IO takes the page over: it is tracked, and counted, once.
		own := want[runStart:i]
		if i < len(want) && want[i] == want[i-1] {
			own = own[:n-1]
		}
		done := d.serviceIO(d.readCost(n))
		for _, pid := range own {
			d.inflight[pid] = done
		}
		heap.Push(&d.due, dueIO{at: done, pages: len(own)})
		d.duePages += len(own)
		runStart = i
	}
}

// InflightCount reports the number of prefetched pages whose read IOs
// have not yet completed on the virtual clock. Completed-but-unclaimed
// pages do not count: their data is available and costs nothing to
// claim, so pacing against them would starve the prefetcher.
//
// Redo calls this per record, so it pops the IOs the clock has passed
// off a heap instead of walking every unclaimed page. A claim needs no
// bookkeeping: Read advances the clock to the completion of a page it
// waited for, so that IO pops on the next call.
func (d *Disk) InflightCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clock.Now()
	for len(d.due) > 0 && d.due[0].at <= now {
		d.duePages -= heap.Pop(&d.due).(dueIO).pages
	}
	return d.duePages
}

// dueHeap is a min-heap (container/heap) of virtual-time prefetch IOs:
// when each completes and how many pages it covers.
type dueHeap []dueIO

type dueIO struct {
	at    sim.Time
	pages int
}

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(dueIO)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Write stores data as the new stable content of pid. The IO is issued
// asynchronously (the device queue is charged; the clock does not
// advance) and the returned time is when the write completes — callers
// use it to order flush-completion callbacks. The content is considered
// stable at the completion time; the engine never crashes with writes
// in flight (a crash is taken at a quiescent instant, which is the
// paper's controlled-crash methodology). The disk keeps data itself as
// the stored image: the caller must not modify it afterward.
func (d *Disk) Write(pid PageID, data []byte) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid == InvalidPageID {
		return 0, fmt.Errorf("storage: write to invalid page 0")
	}
	if len(data) != d.cfg.PageSize {
		return 0, fmt.Errorf("storage: write of %d bytes to page %d, want page size %d", len(data), pid, d.cfg.PageSize)
	}
	if d.frozen {
		return 0, fmt.Errorf("storage: write to frozen disk (page %d)", pid)
	}
	d.stats.Writes++
	d.stats.PagesWritten++
	d.fire(OpWrite, 1)
	d.pages.Set(pid, data)
	return d.serviceIO(d.cfg.WriteSeekTime + d.cfg.TransferPerPage), nil
}

// Freeze marks the disk immutable; subsequent writes fail. Called after
// Fork so the CoW parent cannot be corrupted.
func (d *Disk) Freeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = true
}
