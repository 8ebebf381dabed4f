package wal

import (
	"runtime"
	"sync"
	"sync/atomic"

	"logrec/internal/sim"
)

// Scanner iterates the stable log in order, charging sequential log-page
// read costs to a clock (which may be nil for uncharged scans, e.g.
// tests and statistics).
//
// It reads one view of the log, taken when the scanner is made: the
// stable bytes from the scan start, one chunk per log segment, each
// starting on a frame boundary. Records made stable later are not seen,
// and segments released during the scan stay readable to it.
//
// One routine, fill, decodes a batch of up to scanBatch frames. A view
// of one segment is decoded on the caller's goroutine, a batch as Next
// needs it; a view of two or more ahead of it, by one worker per core
// (at most maxScanWorkers). Worker w fills batches from chunks w,
// w+width, … down its own channel and reuses each once Next is past it,
// so Next waits for one batch, not one segment, and takes the channels
// in chunk order: the (record, LSN) sequence, the pages charged, and the
// error and its position are the inline scan's at every width. Pages are
// charged as records are handed out; workers never touch the clock.
//
// Scanner is not safe for concurrent use; one goroutine drives Next.
type Scanner struct {
	view []chunk
	cur  int    // the chunk of view the next batch comes from
	b    *batch // the batch being handed out
	item int    // the next of b's items to hand out

	clock     *sim.Clock // nil scans without charging IO
	cost      ScanCost
	lastPage  int64 // the log page last charged; at first, the one before from's
	pagesRead int64
	records   int64
	decoded   atomic.Int64 // frames fill decoded, on any goroutine

	// In use only when workers decode: width is the width asked for,
	// out[w] carries worker w's batches (no more workers than chunks).
	width  int
	out    []chan *batch
	stop   chan struct{}
	closed sync.Once
}

const (
	// scanBatch is how many frames a batch holds: the most a scan
	// decodes before Next can hand out the first of them.
	scanBatch = 256
	// scanDepth is how many filled batches a worker queues ahead of
	// Next: ≈16k frames, a quarter of a segment of small updates, which
	// lets two workers outrun one when Next is cheap.
	scanDepth = 64
	// maxScanWorkers caps the decode width: past it Next, not decode,
	// is the limit.
	maxScanWorkers = 8
)

// batch is consecutive frames of one chunk and, if decoding stopped
// short of the chunk's end, the error it stopped on.
type batch struct {
	items []scanItem
	end   LSN // one past the last frame decoded: where the next batch starts
	err   error
}

type scanItem struct {
	rec Record
	lsn LSN
}

func newBatch() *batch { return &batch{items: make([]scanItem, 0, scanBatch)} }

// fill decodes c's frames from off into b: scanBatch of them, or up to
// the chunk's end or the first frame that does not decode.
func (s *Scanner) fill(b *batch, c chunk, off LSN) {
	b.items, b.err = b.items[:0], nil
	for len(b.items) < scanBatch && off < c.end() {
		rec, next, err := decodeFrame(c.data, c.base, off)
		if err != nil {
			b.err = err
			break
		}
		b.items = append(b.items, scanItem{rec, off})
		off = next
	}
	b.end = off
	s.decoded.Add(int64(len(b.items)))
}

// ScanStats summarises a scan, read after it completes.
type ScanStats struct {
	// Workers is the decode width the scan ran at: one per core, capped
	// at 8, over two or more segments; 0 when it decoded inline.
	Workers int
	// Segments is how many log segments the scan's view spans.
	Segments int
	// Records is the total records emitted.
	Records int64
}

// NewScanner returns a scanner positioned at from, clamped to the
// retained log: use StartLSN for everything the log still holds
// (FirstLSN, or anything else below StartLSN, means the same). clock
// may be nil to scan without charging IO. Call Close when abandoning a
// scan early; a scan driven to its end or to an error needs no Close
// but may call it.
func (l *Log) NewScanner(from LSN, clock *sim.Clock, cost ScanCost) *Scanner {
	return l.newScanner(from, clock, cost, min(runtime.GOMAXPROCS(0), maxScanWorkers))
}

// newScanner is NewScanner decoding on width workers; width 0, or a
// view of one segment, decodes inline.
func (l *Log) newScanner(from LSN, clock *sim.Clock, cost ScanCost, width int) *Scanner {
	if cost.PageSize <= 0 {
		cost = DefaultScanCost()
	}
	l.mu.Lock()
	from = max(from, l.segs[0].base)
	s := &Scanner{view: l.chunks(from, l.flushedLSN), b: newBatch(), clock: clock, cost: cost,
		lastPage: int64(from)/int64(cost.PageSize) - 1}
	l.mu.Unlock()
	if width < 1 || len(s.view) < 2 {
		return s
	}
	s.width = width
	s.out = make([]chan *batch, min(width, len(s.view)))
	s.stop = make(chan struct{})
	for w := range s.out {
		s.out[w] = make(chan *batch, scanDepth)
		go s.worker(w)
	}
	return s
}

// worker fills batches from every len(out)-th chunk from the w-th on,
// until the view ends or the scan is closed. Once batch n is sent, Next
// has taken batch n-scanDepth and is done with those before it, so a
// ring of scanDepth+2 batches is never refilled while in use.
func (s *Scanner) worker(w int) {
	var ring [scanDepth + 2]*batch
	n := 0
	for i := w; i < len(s.view); i += len(s.out) {
		c := s.view[i]
		for off, last := c.base, false; !last; n = (n + 1) % len(ring) {
			if ring[n] == nil {
				ring[n] = newBatch()
			}
			b := ring[n]
			s.fill(b, c, off)
			off, last = b.end, b.end == c.end() || b.err != nil
			select {
			case s.out[w] <- b:
			case <-s.stop:
				return
			}
		}
	}
}

// Next returns the next record and its LSN. It returns ok=false at the
// end of the stable log.
func (s *Scanner) Next() (Record, LSN, bool, error) {
	for s.item == len(s.b.items) {
		if s.b.err != nil {
			s.Close()
			return nil, NilLSN, false, s.b.err
		}
		if s.cur == len(s.view) {
			return nil, NilLSN, false, nil
		}
		// Chunk cur's next batch: decoded here, where the last one ended
		// (chunks are contiguous), or taken from the chunk's worker.
		c := s.view[s.cur]
		if s.out == nil {
			s.fill(s.b, c, max(s.b.end, c.base))
		} else {
			s.b = <-s.out[s.cur%len(s.out)]
		}
		s.item = 0
		if s.b.end == c.end() {
			s.cur++
		}
	}
	it := s.b.items[s.item]
	s.item++
	end := s.b.end
	if s.item < len(s.b.items) {
		end = s.b.items[s.item].lsn
	}
	s.charge(end)
	s.records++
	return it.rec, it.lsn, true, nil
}

// charge bills sequential log-page reads up to the byte before to: each
// page once, in order, as the scan first touches it.
func (s *Scanner) charge(to LSN) {
	for last := int64(to-1) / int64(s.cost.PageSize); s.lastPage < last; s.lastPage++ {
		s.pagesRead++
		if s.clock != nil {
			s.clock.Advance(s.cost.PerPage)
		}
	}
}

// PagesRead reports how many log pages the scan has charged.
func (s *Scanner) PagesRead() int64 { return s.pagesRead }

// Stats returns the scan summary. Meaningful once the scan has
// completed (Next returned ok=false or an error).
func (s *Scanner) Stats() ScanStats {
	return ScanStats{Workers: s.width, Segments: len(s.view), Records: s.records}
}

// Close releases the decode workers. It is required when a scan over
// two or more segments is abandoned before completion and harmless
// (idempotent) otherwise.
func (s *Scanner) Close() {
	if s.stop != nil {
		s.closed.Do(func() { close(s.stop) })
	}
}
