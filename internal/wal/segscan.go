package wal

import (
	"runtime"
	"sync/atomic"
	"time"

	"logrec/internal/sim"
)

// defaultSegWorkers is the decode width used when SegConfig.Workers is
// zero: one per core, capped — past 8 the stitcher, not decode, is the
// limit.
func defaultSegWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SegConfig parameterises the segmented parallel log scan.
type SegConfig struct {
	// Workers is the number of concurrent decode goroutines. Zero picks
	// min(GOMAXPROCS, 8).
	Workers int
	// SegmentBytes is the offset-aligned decode-unit size each log
	// segment's stable bytes are carved into. Zero picks 256 KiB. Smaller segments spread skewed
	// logs better; larger segments amortise boundary discovery.
	SegmentBytes int
	// MaxAhead bounds how many segments may be claimed by workers but
	// not yet consumed by the stitcher, which bounds decoded-record
	// memory. Zero picks 2×Workers.
	MaxAhead int
}

// defaultSegmentBytes is 64 log pages at the default 4 KiB page size —
// large enough that boundary discovery is noise, small enough that an
// 8-worker decode saturates on the logs the benchmarks replay.
const defaultSegmentBytes = 256 << 10

func (c SegConfig) withDefaults() SegConfig {
	if c.Workers <= 0 {
		c.Workers = defaultSegWorkers()
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = defaultSegmentBytes
	}
	if c.MaxAhead <= 0 {
		c.MaxAhead = 2 * c.Workers
	}
	return c
}

// SegmentStat describes one decoded segment, for diagnosing skewed
// logs (cmd/logstats -segments).
type SegmentStat struct {
	// Start is the byte offset where the segment nominally begins.
	Start LSN
	// End is one past the segment's last byte.
	End LSN
	// First is the first frame boundary the worker locked onto within
	// the segment (End if it found none).
	First LSN
	// Records is how many records the stitched stream drew from this
	// segment.
	Records int
	// DecodeTime is the wall time spent decoding the segment (worker
	// time, plus the stitcher's serial fallback when resynced).
	DecodeTime time.Duration
	// Resynced marks a segment whose speculative decode was discarded
	// because its discovered boundary disagreed with the stitched
	// stream; the stitcher re-decoded it serially.
	Resynced bool
	// Skipped marks a segment swallowed whole by a frame that started
	// in an earlier segment.
	Skipped bool
}

// SegStats is the segmented scan's summary, read after the scan
// completes.
type SegStats struct {
	// Workers is the decode worker count actually used.
	Workers int
	// Segments is how many segments the log was carved into.
	Segments int
	// Resyncs counts segments that failed the continuity check and
	// were re-decoded serially.
	Resyncs int
	// Records is the total records emitted.
	Records int64
	// Stall is the wall time the stitcher spent blocked waiting for a
	// segment's decode to finish (decode-stage starvation).
	Stall time.Duration
	// Segment holds the per-segment breakdown.
	Segment []SegmentStat
}

// segBounds is one decode unit: the LSN range [start, end) of the log
// segment view[phys]. known marks a unit that starts where its log
// segment does, which is a frame boundary by construction.
type segBounds struct {
	start, end LSN
	phys       int
	known      bool
}

type segItem struct {
	rec Record
	lsn LSN
	end LSN
}

type segResult struct {
	first LSN // discovered first frame LSN (== unit end if none)
	items []segItem
	err   error // decode error; legitimate only at the log's true tail
	took  time.Duration
}

// SegScanner decodes the stable log with concurrent workers and
// re-stitches the per-segment streams into exact LSN order.
//
// The decode units ("segments" in SegConfig and the stats) are carved
// inside each physical log segment, so a unit's frames lie in one
// contiguous slice. The first unit of every log segment starts on a
// known frame boundary (the scan position, or the segment's base);
// every other worker finds its first frame by scanning forward to the
// first offset where a complete frame decodes — the same full-frame
// validation
// AppendStable applies to shipped bytes. The stitcher then verifies
// continuity: a segment is accepted only if its discovered boundary
// equals the byte the stitched stream expects next; otherwise the
// speculative decode is discarded and the segment is re-decoded
// serially from the expected offset. Mis-locks therefore cost time,
// never correctness — the stitched sequence of (record, LSN) pairs is
// byte-identical to wal.Scanner's in all cases, including torn tails
// (which only the final segment can surface, exactly like the serial
// scan).
//
// SegScanner is not safe for concurrent use; one goroutine drives
// Next. Page-read accounting and clock charging are Scanner's own
// (the embedded pageCharger), so LogPagesRead and virtual scan time
// match the serial path and are charged once, on the stitcher.
type SegScanner struct {
	view []chunk // the stable log from the scan start, one per log segment
	cfg  SegConfig
	pageCharger

	segs    []segBounds
	results []chan *segResult
	sem     chan struct{}
	stop    chan struct{}
	nextSeg atomic.Int64

	cur      int // next segment index to consume
	curRes   *segResult
	curI     int
	expected LSN // the LSN the stitched stream must produce next
	err      error

	stall   time.Duration
	resyncs int
	records int64
	perSeg  []SegmentStat
}

// NewSegScanner returns a segmented parallel scanner positioned at
// from, clamped to the retained log like NewScanner. clock may be nil
// to scan without charging IO. The zero SegConfig picks sensible
// defaults. Call Close when abandoning the scan early; a scan driven to
// completion needs no Close but may call it.
func (l *Log) NewSegScanner(from LSN, clock *sim.Clock, cost ScanCost, cfg SegConfig) *SegScanner {
	cfg = cfg.withDefaults()
	s := &SegScanner{
		view:        l.stableChunks(from),
		cfg:         cfg,
		pageCharger: newPageCharger(clock, cost),
		stop:        make(chan struct{}),
	}
	if len(s.view) > 0 {
		s.expected = s.view[0].base
	}
	for i, c := range s.view {
		for b := c.base; b < c.end(); {
			end := min((b/LSN(cfg.SegmentBytes)+1)*LSN(cfg.SegmentBytes), c.end())
			s.segs = append(s.segs, segBounds{start: b, end: end, phys: i, known: b == c.base})
			b = end
		}
	}
	s.results = make([]chan *segResult, len(s.segs))
	for i := range s.results {
		s.results[i] = make(chan *segResult, 1)
	}
	s.perSeg = make([]SegmentStat, len(s.segs))
	for i, sb := range s.segs {
		s.perSeg[i] = SegmentStat{Start: sb.start, End: sb.end, First: NilLSN}
	}
	s.sem = make(chan struct{}, cfg.MaxAhead)
	workers := cfg.Workers
	if workers > len(s.segs) {
		workers = len(s.segs)
	}
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// worker claims segment indexes in order and decodes them. The
// decode-ahead token is acquired before claiming, so the lowest
// unconsumed segment is always held by a worker that already has a
// token — the stitcher can always make progress.
func (s *SegScanner) worker() {
	for {
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			return
		}
		i := int(s.nextSeg.Add(1) - 1)
		if i >= len(s.segs) {
			return
		}
		res := s.decodeSegment(i)
		select {
		case s.results[i] <- res:
		case <-s.stop:
			return
		}
	}
}

func (s *SegScanner) decodeSegment(i int) *segResult {
	t0 := time.Now()
	u := s.segs[i]
	off := u.start
	if !u.known {
		off = s.findFrame(u)
	}
	res := s.decodeFrom(u, off)
	res.took = time.Since(t0)
	return res
}

// decodeFrom decodes unit u's frames starting at off. Frames whose
// start is inside the unit belong to it, even when the body straddles
// its end; the next unit's worker skips forward past the straddle when
// it locks on.
func (s *SegScanner) decodeFrom(u segBounds, off LSN) *segResult {
	c := s.view[u.phys]
	res := &segResult{first: off}
	for off < u.end {
		rec, next, err := decodeFrame(c.data, c.base, off)
		if err != nil {
			res.err = err
			break
		}
		res.items = append(res.items, segItem{rec, off, next})
		off = next
	}
	return res
}

// findFrame scans forward from u's start for the first offset where a
// complete frame decodes — the same validation screen AppendStable
// applies to shipped bytes. A lock onto bytes that merely look like a
// frame is caught by the stitcher's continuity check, so discovery
// only has to be right often enough to be fast, never for correctness.
func (s *SegScanner) findFrame(u segBounds) LSN {
	c := s.view[u.phys]
	for off := u.start; off < u.end; off++ {
		if _, _, err := decodeFrame(c.data, c.base, off); err == nil {
			return off
		}
	}
	return u.end
}

// Next returns the next record and its LSN, in exact log order. It
// returns ok=false at the end of the stable log, or the same error the
// serial scanner would surface at the same position.
func (s *SegScanner) Next() (Record, LSN, bool, error) {
	for {
		if s.err != nil {
			return nil, NilLSN, false, s.err
		}
		if s.curRes != nil {
			if s.curI < len(s.curRes.items) {
				it := s.curRes.items[s.curI]
				s.curI++
				s.charge(it.lsn, it.end)
				s.expected = it.end
				s.records++
				return it.rec, it.lsn, true, nil
			}
			if s.curRes.err != nil {
				s.err = s.curRes.err
				continue
			}
			s.curRes = nil
		}
		if s.cur >= len(s.segs) {
			return nil, NilLSN, false, nil
		}
		s.loadSegment()
	}
}

// loadSegment consumes the next segment's decode, verifying stream
// continuity and falling back to a serial re-decode on disagreement.
func (s *SegScanner) loadSegment() {
	i := s.cur
	s.cur++
	segEnd := s.segs[i].end
	res := s.take(i)
	st := &s.perSeg[i]
	st.First = res.first
	st.DecodeTime = res.took
	if s.expected >= segEnd {
		// A frame from an earlier segment swallowed this one whole;
		// nothing here can belong to the stitched stream.
		st.Skipped = true
		st.Records = 0
		return
	}
	if res.first == s.expected {
		st.Records = len(res.items)
		s.curRes, s.curI = res, 0
		return
	}
	// Continuity violated: the worker locked onto a false boundary (or
	// found none). Discard its output and re-decode serially from the
	// byte the stream expects — correctness never depends on discovery.
	t0 := time.Now()
	fb := s.decodeFrom(s.segs[i], s.expected)
	s.resyncs++
	st.Resynced = true
	st.Records = len(fb.items)
	st.DecodeTime += time.Since(t0)
	s.curRes, s.curI = fb, 0
}

// take blocks for segment i's decode, accounting the wait as stitcher
// stall, and releases the worker's decode-ahead token.
func (s *SegScanner) take(i int) *segResult {
	select {
	case res := <-s.results[i]:
		<-s.sem
		return res
	default:
	}
	t0 := time.Now()
	res := <-s.results[i]
	s.stall += time.Since(t0)
	<-s.sem
	return res
}

// Stats returns the scan summary. Meaningful once the scan has
// completed (Next returned ok=false or an error).
func (s *SegScanner) Stats() SegStats {
	return SegStats{
		Workers:  s.cfg.Workers,
		Segments: len(s.segs),
		Resyncs:  s.resyncs,
		Records:  s.records,
		Stall:    s.stall,
		Segment:  s.perSeg,
	}
}

// Close releases the decode workers. It is required when a scan is
// abandoned before completion and harmless (idempotent) otherwise.
func (s *SegScanner) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
}
