package storage

import (
	"fmt"
	"os"
	"sync"
	"time"

	"logrec/internal/sim"
)

// FileDisk is the real-device implementation of Device: pages live in a
// single file, reads are pread(2)s, writes are pwrite(2)s, Prefetch
// issues reads on background goroutines bounded by the configured
// channel count (queue depth), and Sync is a genuine fsync — the
// durability barrier the simulated disk only models.
//
// Layout: page pid lives at byte offset (pid-1)*PageSize; PageID 0 is
// invalid, so the boot page (MetaPageID = 1) is the first page of the
// file. A written page always carries a non-zero header (the slotted
// page's type byte, or the boot page's magic), which is how Reopen
// rebuilds the written-page map after a crash: zero-filled slots belong
// to pages that were allocated but never flushed.
//
// IO waits are wall-clock: the buffer pool reads and writes with its
// latch released, so parallel recovery workers genuinely overlap their
// IO.
type FileDisk struct {
	clock *sim.Clock
	cfg   Config
	f     *os.File

	// mu guards written, inflight, frozen, stats and hook. File IO
	// happens outside the lock; *os.File ReadAt/WriteAt are
	// goroutine-safe.
	mu       sync.Mutex
	written  map[PageID]struct{}
	inflight map[PageID]*fileIO
	pending  int // unclaimed pages of incomplete prefetch IOs
	// slots is a Channels-deep semaphore bounding concurrent prefetch
	// IOs — the device queue depth, exactly like the simulated disk's
	// channel array.
	slots  chan struct{}
	wg     sync.WaitGroup
	frozen bool
	stats  Stats
	hook   IOHook
}

var _ Device = (*FileDisk)(nil)

// fileIO is one in-flight prefetch IO covering one or more contiguous
// pages; done is closed on completion, after data (or err) is set.
type fileIO struct {
	*asyncIO
	data map[PageID][]byte
	err  error
}

// asyncIO is one wall-clock prefetch IO: done is closed on completion,
// unclaimed counts its pages no Read has taken. Both change only under
// the device mutex, together with the device's pending count — the
// unclaimed pages of incomplete IOs, which is what InflightCount
// answers without polling every channel.
type asyncIO struct {
	done      chan struct{}
	unclaimed int
}

func newAsyncIO(pages int, pending *int) *asyncIO {
	*pending += pages
	return &asyncIO{done: make(chan struct{}), unclaimed: pages}
}

// claim takes one page and reports whether the IO had completed; if
// not, the caller waits on done.
func (io *asyncIO) claim(pending *int) bool {
	select {
	case <-io.done:
		return true
	default:
		io.unclaimed--
		*pending--
		return false
	}
}

func (io *asyncIO) complete(pending *int) {
	*pending -= io.unclaimed
	close(io.done)
}

// NewFileDisk creates (or truncates) the page file at path. The clock
// is carried only so Write can report a completion time to the flush
// hooks; FileDisk never advances it.
func NewFileDisk(clock *sim.Clock, cfg Config, path string) (*FileDisk, error) {
	return openFileDisk(clock, cfg, path, true)
}

// OpenFileDisk opens an existing page file (the restart path) and
// rebuilds the written-page map from the pages' headers.
func OpenFileDisk(clock *sim.Clock, cfg Config, path string) (*FileDisk, error) {
	return openFileDisk(clock, cfg, path, false)
}

func openFileDisk(clock *sim.Clock, cfg Config, path string, create bool) (*FileDisk, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, fmt.Errorf("storage: nil clock")
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening page file: %w", err)
	}
	d := &FileDisk{
		clock:    clock,
		cfg:      cfg,
		f:        f,
		written:  make(map[PageID]struct{}),
		inflight: make(map[PageID]*fileIO),
		slots:    make(chan struct{}, cfg.Channels),
	}
	if !create {
		if err := d.rebuildWritten(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return d, nil
}

// rebuildWritten scans the file and marks every page slot whose header
// bytes are non-zero as written (see the FileDisk doc comment).
func (d *FileDisk) rebuildWritten() error {
	info, err := d.f.Stat()
	if err != nil {
		return err
	}
	const chunkPages = 64
	buf := make([]byte, chunkPages*d.cfg.PageSize)
	pageSize := int64(d.cfg.PageSize)
	npages := (info.Size() + pageSize - 1) / pageSize
	for first := int64(0); first < npages; first += chunkPages {
		n, err := d.f.ReadAt(buf, first*pageSize)
		if err != nil && n == 0 {
			return fmt.Errorf("storage: scanning page file: %w", err)
		}
		for p := int64(0); p*pageSize < int64(n) && first+p < npages; p++ {
			head := buf[p*pageSize:]
			limit := 32
			if rest := int64(n) - p*pageSize; rest < int64(limit) {
				limit = int(rest)
			}
			for _, b := range head[:limit] {
				if b != 0 {
					d.written[PageID(first+p+1)] = struct{}{}
					break
				}
			}
		}
	}
	return nil
}

// Close waits for in-flight prefetch IOs and closes the file. A crash
// closes without any flush or sync: whatever the file holds is what
// recovery gets, which is the point.
func (d *FileDisk) Close() error {
	d.wg.Wait()
	return d.f.Close()
}

func (d *FileDisk) off(pid PageID) int64 {
	return int64(pid-1) * int64(d.cfg.PageSize)
}

// Config returns the device configuration.
func (d *FileDisk) Config() Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// Stats returns a copy of the accumulated IO statistics. StallTime is
// wall-clock nanoseconds here (the virtual and wall domains coincide on
// a real device).
func (d *FileDisk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetIOHook subscribes fn to every IO (see Device.SetIOHook).
func (d *FileDisk) SetIOHook(fn IOHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = fn
}

// fire reports an IO to the hook. Caller holds d.mu.
func (d *FileDisk) fire(op IOOp, pages int) {
	if d.hook != nil {
		d.hook(op, pages)
	}
}

// Exists reports whether pid has ever been written.
func (d *FileDisk) Exists(pid PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.written[pid]
	return ok
}

// NumPages reports the number of written pages.
func (d *FileDisk) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.written)
}

// InflightCount reports prefetched pages whose IOs are not yet complete.
func (d *FileDisk) InflightCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pending
}

// Freeze marks the disk immutable; subsequent writes fail.
func (d *FileDisk) Freeze() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.frozen = true
}

// Read synchronously fetches pid: from a covering prefetch IO when one
// is in flight (waiting for it if needed), with a pread otherwise. The
// wait happens outside the disk lock so concurrent readers overlap.
func (d *FileDisk) Read(pid PageID) ([]byte, error) {
	d.mu.Lock()
	if _, ok := d.written[pid]; !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("storage: read of unwritten page %d", pid)
	}
	if io, ok := d.inflight[pid]; ok {
		delete(d.inflight, pid)
		if io.claim(&d.pending) {
			d.stats.PrefetchHits++
			d.mu.Unlock()
		} else {
			d.stats.Stalls++
			d.mu.Unlock()
			start := time.Now()
			<-io.done
			d.addStall(time.Since(start))
		}
		if io.err != nil {
			return nil, io.err
		}
		return io.data[pid], nil
	}
	d.stats.Reads++
	d.stats.PagesRead++
	d.stats.Stalls++
	d.fire(OpRead, 1)
	d.mu.Unlock()

	buf := make([]byte, d.cfg.PageSize)
	start := time.Now()
	if _, err := d.f.ReadAt(buf, d.off(pid)); err != nil {
		return nil, fmt.Errorf("storage: reading page %d: %w", pid, err)
	}
	d.addStall(time.Since(start))
	return buf, nil
}

func (d *FileDisk) addStall(elapsed time.Duration) {
	d.mu.Lock()
	d.stats.StallTime += sim.Duration(elapsed.Nanoseconds())
	d.mu.Unlock()
}

// Prefetch asynchronously issues reads for the given pages, grouping
// contiguous PIDs into block IOs of at most MaxBlock pages, each on its
// own goroutine bounded by the queue-depth semaphore.
func (d *FileDisk) Prefetch(pids []PageID) {
	if len(pids) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	want := make([]PageID, 0, len(pids))
	for _, pid := range pids {
		if _, busy := d.inflight[pid]; busy {
			continue
		}
		if _, ok := d.written[pid]; !ok {
			continue // nothing stable to read; caller will create the page
		}
		want = append(want, pid)
	}
	if len(want) == 0 {
		return
	}
	sortPIDs(want)
	runStart := 0
	for i := 1; i <= len(want); i++ {
		endOfRun := i == len(want) ||
			want[i] != want[i-1]+1 ||
			i-runStart >= d.cfg.MaxBlock
		if !endOfRun {
			continue
		}
		run := want[runStart:i]
		n := len(run)
		d.stats.Reads++
		d.stats.PagesRead += int64(n)
		d.stats.PrefetchIOs++
		d.stats.PrefetchPages += int64(n)
		if n > 1 {
			d.stats.BlockReads++
		}
		d.fire(OpPrefetch, n)
		own := run // less a page requested twice: see Disk.Prefetch
		if i < len(want) && want[i] == want[i-1] {
			own = own[:n-1]
		}
		io := &fileIO{asyncIO: newAsyncIO(len(own), &d.pending)}
		for _, pid := range own {
			d.inflight[pid] = io
		}
		first := run[0]
		d.wg.Add(1)
		go func(run []PageID) {
			defer d.wg.Done()
			defer func() {
				d.mu.Lock()
				io.complete(&d.pending)
				d.mu.Unlock()
			}()
			d.slots <- struct{}{}
			defer func() { <-d.slots }()
			buf := make([]byte, len(run)*d.cfg.PageSize)
			if _, err := d.f.ReadAt(buf, d.off(first)); err != nil {
				io.err = fmt.Errorf("storage: prefetch read at page %d: %w", first, err)
				return
			}
			io.data = make(map[PageID][]byte, len(run))
			for j, pid := range run {
				io.data[pid] = buf[j*d.cfg.PageSize : (j+1)*d.cfg.PageSize : (j+1)*d.cfg.PageSize]
			}
		}(run)
		runStart = i
	}
}

// Write stores data as the new stable content of pid via pwrite. The
// write is buffered; durability comes from the next Sync.
func (d *FileDisk) Write(pid PageID, data []byte) (sim.Time, error) {
	d.mu.Lock()
	if pid == InvalidPageID {
		d.mu.Unlock()
		return 0, fmt.Errorf("storage: write to invalid page 0")
	}
	if len(data) != d.cfg.PageSize {
		d.mu.Unlock()
		return 0, fmt.Errorf("storage: write of %d bytes to page %d, want page size %d", len(data), pid, d.cfg.PageSize)
	}
	if d.frozen {
		d.mu.Unlock()
		return 0, fmt.Errorf("storage: write to frozen disk (page %d)", pid)
	}
	d.stats.Writes++
	d.stats.PagesWritten++
	d.fire(OpWrite, 1)
	d.written[pid] = struct{}{}
	d.mu.Unlock()

	if _, err := d.f.WriteAt(data, d.off(pid)); err != nil {
		return 0, fmt.Errorf("storage: writing page %d: %w", pid, err)
	}
	return d.clock.Now(), nil
}

// Sync fsyncs the page file — the durability barrier checkpoints rely
// on.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	d.stats.Syncs++
	d.fire(OpSync, 0)
	d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	return nil
}

func sortPIDs(pids []PageID) {
	// Insertion sort: prefetch batches are small (≤ pool free frames)
	// and usually nearly sorted already.
	for i := 1; i < len(pids); i++ {
		for j := i; j > 0 && pids[j] < pids[j-1]; j-- {
			pids[j], pids[j-1] = pids[j-1], pids[j]
		}
	}
}
