package wal

import (
	"sync"

	"logrec/internal/sim"
)

// Scanner iterates the stable log in order, charging sequential log-page
// read costs to a clock (which may be nil for uncharged scans, e.g.
// tests and statistics).
//
// It reads one view of the log, taken when the scanner is made: the
// stable bytes from the scan start, one chunk per log segment. Every
// chunk starts on a frame boundary — the scan start, or a segment's
// base — so the segment is the decode unit and nothing has to be
// discovered. Records made stable later are not seen, and segments
// released during the scan stay readable to it.
//
// A scanner made by NewScanner, and any scanner whose view is a single
// segment, decodes inline on the caller's goroutine. NewParallelScanner
// over several segments hands whole segments to decode workers and
// stitches their output back in segment order, so the sequence of
// (record, LSN) pairs, the pages charged, and the error and the
// position it surfaces at are those of the inline scan at every width.
// Pages are charged as records are handed out, on the goroutine that
// drives Next; workers never touch the clock.
//
// Scanner is not safe for concurrent use; one goroutine drives Next.
type Scanner struct {
	view []chunk
	cur  int // the chunk of view being read
	next LSN // inline: the LSN of the next frame

	clock *sim.Clock // nil scans without charging IO
	cost  ScanCost
	// lastPage is the index of the log page most recently charged.
	lastPage  int64
	pagesRead int64
	records   int64

	// The rest is in use only when workers decode. Worker w decodes
	// chunks w, w+len(out), … in that order and sends each down out[w],
	// which holds one result while the next is being decoded: that is
	// the decode-ahead, two chunks a worker.
	width  int
	out    []chan *decoded
	stop   chan struct{}
	closed sync.Once
	unit   *decoded // the chunk being handed out
	item   int
}

// decoded is one chunk's frames in order and, if decoding stopped
// short of the chunk's end, the error it stopped on.
type decoded struct {
	items []scanItem
	err   error
}

type scanItem struct {
	rec      Record
	lsn, end LSN
}

// ScanStats summarises a scan, read after it completes.
type ScanStats struct {
	// Workers is the decode width the scan ran at: 0 when it decoded
	// inline.
	Workers int
	// Segments is how many log segments the scan's view spans.
	Segments int
	// Records is the total records emitted.
	Records int64
}

// NewScanner returns a scanner positioned at from, clamped to the
// retained log: use StartLSN for everything the log still holds
// (FirstLSN, or anything else below StartLSN, means the same). clock
// may be nil to scan without charging IO.
func (l *Log) NewScanner(from LSN, clock *sim.Clock, cost ScanCost) *Scanner {
	return l.NewParallelScanner(from, clock, cost, 0)
}

// NewParallelScanner is NewScanner decoding on up to width workers;
// width 0 decodes inline. Call Close when abandoning the scan early; a
// scan driven to its end or to an error needs no Close but may call it.
func (l *Log) NewParallelScanner(from LSN, clock *sim.Clock, cost ScanCost, width int) *Scanner {
	if cost.PageSize <= 0 {
		cost = DefaultScanCost()
	}
	s := &Scanner{view: l.stableChunks(from), clock: clock, cost: cost, lastPage: -1}
	if len(s.view) > 0 {
		s.next = s.view[0].base
	}
	if width < 1 || len(s.view) < 2 {
		return s
	}
	s.width = width
	s.unit = &decoded{}
	s.out = make([]chan *decoded, min(width, len(s.view)))
	s.stop = make(chan struct{})
	for w := range s.out {
		s.out[w] = make(chan *decoded, 1)
		go s.worker(w)
	}
	return s
}

// worker decodes every len(out)-th chunk from the w-th on, until the
// view ends or the scan is closed.
func (s *Scanner) worker(w int) {
	for i := w; i < len(s.view); i += len(s.out) {
		select {
		case s.out[w] <- decodeChunk(s.view[i]):
		case <-s.stop:
			return
		}
	}
}

// decodeChunk decodes c's frames from its first byte to its last, or to
// the first that does not decode.
func decodeChunk(c chunk) *decoded {
	d := &decoded{items: make([]scanItem, 0, frameCount(c.data))}
	for off := c.base; off < c.end(); {
		rec, next, err := decodeFrame(c.data, c.base, off)
		if err != nil {
			d.err = err
			break
		}
		d.items = append(d.items, scanItem{rec, off, next})
		off = next
	}
	return d
}

// frameCount hops from frame header to frame header and returns how
// many frames fit in data: what a chunk's decode will hold, known before
// any body is parsed.
func frameCount(data []byte) int {
	n := 0
	for off := 0; off < len(data); n++ {
		hdr, body, err := frameSpan(data[off:])
		if err != nil || body > uint64(len(data)-off-hdr) {
			break
		}
		off += hdr + int(body)
	}
	return n
}

// Next returns the next record and its LSN. It returns ok=false at the
// end of the stable log.
func (s *Scanner) Next() (Record, LSN, bool, error) {
	if s.width > 0 {
		return s.nextDecoded()
	}
	if s.cur < len(s.view) && s.next == s.view[s.cur].end() {
		s.cur++
	}
	if s.cur == len(s.view) {
		return nil, NilLSN, false, nil
	}
	c := s.view[s.cur]
	lsn := s.next
	rec, end, err := decodeFrame(c.data, c.base, lsn)
	if err != nil {
		return nil, NilLSN, false, err
	}
	s.charge(lsn, end)
	s.next = end
	s.records++
	return rec, lsn, true, nil
}

// nextDecoded is Next over the workers' output.
func (s *Scanner) nextDecoded() (Record, LSN, bool, error) {
	for s.item == len(s.unit.items) {
		if s.unit.err != nil {
			s.Close()
			return nil, NilLSN, false, s.unit.err
		}
		if s.cur == len(s.view) {
			return nil, NilLSN, false, nil
		}
		s.unit, s.item = <-s.out[s.cur%len(s.out)], 0
		s.cur++
	}
	it := s.unit.items[s.item]
	s.item++
	s.charge(it.lsn, it.end)
	s.records++
	return it.rec, it.lsn, true, nil
}

// charge bills sequential log-page reads for the byte range [from,to):
// each page once, in order, as the scan first touches it.
func (s *Scanner) charge(from, to LSN) {
	first := int64(from) / int64(s.cost.PageSize)
	last := int64(to-1) / int64(s.cost.PageSize)
	for p := first; p <= last; p++ {
		if p <= s.lastPage {
			continue
		}
		s.lastPage = p
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

// Close releases the decode workers. It is required when a parallel
// scan is abandoned before completion and harmless (idempotent)
// otherwise.
func (s *Scanner) Close() {
	if s.stop != nil {
		s.closed.Do(func() { close(s.stop) })
	}
}
