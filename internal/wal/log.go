package wal

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"logrec/internal/sim"
)

// logHeaderSize is where LSN space begins: no record sits at offset 0,
// so LSN 0 can mean "none". Nothing is stored below it — a segment
// file's header lives outside LSN space.
const logHeaderSize = 16

// frameHeaderMin is the narrowest frame header: the record type in one
// byte, then the body length as a varint — one byte for a body under
// 128 bytes, which every per-operation record has. The header alone
// says where the next frame starts, so the log is walked frame to frame
// without decoding a body (frameSpan).
const frameHeaderMin = 2

// segmentBytes is the capacity of a log segment. A segment is sealed
// when the next frame would take it past this; a frame larger than this
// gets a segment of its own.
const segmentBytes = 1 << 20

// tailStartBytes is the backing array a new tail starts with (or the
// segment capacity, if smaller). It doubles as the tail fills, so a log
// holds about as many bytes as it has written, not a whole segment.
const tailStartBytes = 4 << 10

// ScanCost parameterises the IO charge of reading the log during
// recovery. The log is read sequentially; the scanner charges PerPage to
// the scanning clock each time it crosses into a new log page. The log
// is assumed to live on its own device (as is standard), so log reads do
// not contend with data-page IO.
type ScanCost struct {
	// PageSize is the log page size in bytes.
	PageSize int
	// PerPage is the sequential read cost per log page.
	PerPage sim.Duration
}

// DefaultScanCost matches the experiment defaults: 4 KB log pages at
// 500 µs per sequential page read.
func DefaultScanCost() ScanCost {
	return ScanCost{PageSize: 4096, PerPage: 500 * sim.Microsecond}
}

// segment is one record-aligned run of the log: data[0] is the byte at
// LSN base, and no frame straddles two segments. The last segment of a
// log's chain is its tail, owned by that log alone. It is extended in
// place while its backing array has room and grows by copying into a
// new array twice the size when it has not, up to the segment capacity.
// Bytes once written are never rewritten: a slice a reader took of the
// old array keeps reading them. Every other segment is sealed:
// immutable, and shared by reference between the live log, its
// snapshots and their clones.
type segment struct {
	base LSN
	data []byte
	// sealed marks a tail that must not be extended even where it has
	// room: a segment reopened from a file that was not the last one
	// (OpenLogDir), whose file other directories may share.
	sealed bool
}

func (s *segment) end() LSN { return s.base + LSN(len(s.data)) }

// chunk is a reader's view of part of one segment: bytes that will not
// change, the first of them at LSN base, inside the segment based at
// seg (which names its file on a backend).
type chunk struct {
	seg  LSN
	base LSN
	data []byte
}

func (c chunk) end() LSN { return c.base + LSN(len(c.data)) }

// hold pins the log at an LSN: Release never drops a byte at or above
// the lowest hold (see ShipReader).
type hold struct{ at LSN }

// Log is an append-only write-ahead log, kept as a chain of segments.
// An LSN is a byte offset into one contiguous space that starts at
// FirstLSN; segment boundaries occupy none of it. Appends land in the
// volatile tail; Flush moves the stable boundary (the "end of stable
// log" that EOSL communicates to the DC). A crash snapshot discards the
// volatile tail. Release drops whole segments from the front once
// nothing can need them, so a long-running log stays bounded; reading
// below StartLSN fails with ErrReleased.
//
// Log is safe for concurrent use: a single mutex guards the chain, the
// tail and the stable boundary. Readers copy a segment's slice header
// under it and decode outside it. The recovery experiments remain
// single-threaded over virtual time (the mutex is uncontended there);
// the concurrent write path (GroupCommitter, tc.Session) appends from
// many goroutines.
type Log struct {
	mu sync.Mutex
	// segs is the retained chain in LSN order, each segment starting
	// where the previous one ends; the last is the tail. It is never
	// empty, and only the tail may be.
	segs []*segment
	// segCap is the capacity new segments get (segmentBytes; tests
	// shrink it).
	segCap     int
	flushedLSN LSN
	frozen     bool

	// recCount is the total number of records appended; stableRecs is
	// how many of them the stable prefix holds (set by Flush). The
	// group committer diffs stableRecs across flushes for exact
	// records-per-flush accounting.
	recCount   int64
	stableRecs int64

	// appendCount tracks records appended, by type, for statistics.
	appendCount [TypeRSSP + 1]int64

	// torn marks a snapshot whose tail TearTail corrupted; CloneTrimmed
	// only pays its frame walk when set.
	torn bool

	// held is AppendStable's receive buffer: shipped bytes past the
	// last complete frame, awaiting the rest of it. They are not part
	// of the chain; DropPartialTail discards them.
	held []byte

	// holds are the registered retention pins.
	holds []*hold

	// backend, when non-nil, is the log's persistent device: Flush
	// writes the unpersisted suffix and fsyncs before moving the stable
	// boundary, so "stable" means on-disk, not just in-memory.
	// persisted is the LSN below which the backend holds every retained
	// byte; flushMu serializes flushers so concurrent forces
	// (group-commit leader, WAL-protocol page-flush force) never
	// interleave their backend writes. Appends stay concurrent with an
	// in-flight force: Flush captures the tail boundary under mu,
	// performs the IO without it, and only then advances the stable
	// boundary.
	backend   Backend
	persisted LSN
	flushMu   sync.Mutex
}

// NewLog creates an empty log.
func NewLog() *Log { return newLog(segmentBytes) }

// newLog is NewLog with a chosen segment capacity.
func newLog(segCap int) *Log {
	return &Log{
		segs:       []*segment{{base: FirstLSN()}},
		segCap:     segCap,
		flushedLSN: FirstLSN(),
	}
}

// FirstLSN is the LSN of the first record ever appended to any log.
func FirstLSN() LSN { return LSN(logHeaderSize) }

func (l *Log) tail() *segment { return l.segs[len(l.segs)-1] }

// segIndex returns the index of the retained segment holding lsn.
// Callers must hold l.mu.
func (l *Log) segIndex(lsn LSN) (int, error) {
	switch {
	case lsn < FirstLSN() || lsn >= l.tail().end():
		return 0, fmt.Errorf("%w: %v (log end %d)", ErrOutOfRange, lsn, l.tail().end())
	case lsn < l.segs[0].base:
		return 0, fmt.Errorf("%w: %v (log starts at %v)", ErrReleased, lsn, l.segs[0].base)
	case lsn >= l.tail().base:
		return len(l.segs) - 1, nil
	}
	return sort.Search(len(l.segs), func(i int) bool { return l.segs[i].base > lsn }) - 1, nil
}

// chunks returns the retained bytes of [from, to), one chunk per
// segment. Callers must hold l.mu.
func (l *Log) chunks(from, to LSN) []chunk {
	var out []chunk
	for _, s := range l.segs {
		lo, hi := max(from, s.base), min(to, s.end())
		if lo < hi {
			out = append(out, chunk{seg: s.base, base: lo, data: s.data[lo-s.base : hi-s.base]})
		}
	}
	return out
}

// room returns how many bytes the tail takes in place: what is left
// of its backing array, short of the segment capacity. A frame that
// fits needs neither a seal nor a growth.
func (l *Log) room() int {
	t := l.tail()
	if t.sealed {
		return 0
	}
	return max(min(cap(t.data), l.segCap)-len(t.data), 0)
}

// reserve makes the tail able to take n more bytes in place and
// returns it. The tail is sealed, and a new one opened, when n bytes
// would take it past the segment capacity (an empty tail takes any
// frame: a larger one gets a segment of its own). A tail short of room
// grows into a new array, doubling from tailStartBytes but never past
// the segment capacity.
func (l *Log) reserve(n int) *segment {
	t := l.tail()
	if len(t.data) > 0 && (t.sealed || len(t.data)+n > l.segCap) {
		t = &segment{base: t.end()}
		l.segs = append(l.segs, t)
	}
	need := len(t.data) + n
	if need > cap(t.data) {
		c := max(2*cap(t.data), tailStartBytes)
		for c < need {
			c *= 2
		}
		grown := make([]byte, len(t.data), min(c, max(l.segCap, need)))
		copy(grown, t.data)
		t.data = grown
	}
	return t
}

// appendFrame copies one complete frame to the tail, sealing it or
// growing it first as reserve decides, and returns the frame's LSN.
func (l *Log) appendFrame(frame []byte) LSN {
	t := l.reserve(len(frame))
	lsn := t.end()
	t.data = append(t.data, frame...)
	return lsn
}

// Append encodes rec at the log tail and returns its LSN. The record is
// volatile until the next Flush. The frame is encoded straight into the
// tail segment's room; only a frame that does not fit there is encoded
// on the heap and copied into the tail once it has grown, or into the
// segment opened for it.
func (l *Log) Append(rec Record) (LSN, error) {
	lsn, _, err := l.appendIf(rec, NilLSN)
	return lsn, err
}

// AppendAt appends rec only if it lands exactly at the LSN `at` — the
// log end the caller sampled with EndLSN and built into the record (an
// SMO record's page images carry the record's own LSN). It reports
// false, having appended nothing, when another append got there first;
// the caller samples again and rebuilds.
func (l *Log) AppendAt(rec Record, at LSN) (bool, error) {
	_, ok, err := l.appendIf(rec, at)
	return ok, err
}

// MustAppendAt is AppendAt for call sites where the log cannot be
// frozen; it panics on error.
func (l *Log) MustAppendAt(rec Record, at LSN) bool {
	ok, err := l.AppendAt(rec, at)
	if err != nil {
		panic(err)
	}
	return ok
}

// appendIf is Append, conditional on the record landing at `at` unless
// at is NilLSN.
func (l *Log) appendIf(rec Record, at LSN) (LSN, bool, error) {
	typ := rec.Type()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return NilLSN, false, fmt.Errorf("wal: append to frozen log")
	}
	t := l.tail()
	// A seal opens the next segment where this one ends, so the record's
	// LSN is known before it is encoded.
	lsn := t.end()
	if at != NilLSN && lsn != at {
		return NilLSN, false, nil
	}
	n, room := len(t.data), l.room()
	frame, err := rec.encodeBody(append(t.data[n:n:n+room], byte(typ), 0), lsn)
	if err != nil {
		return NilLSN, false, fmt.Errorf("wal: appending %v record at %v: %w", typ, lsn, err)
	}
	frame = closeFrame(frame)
	if len(frame) <= room {
		// No append outgrew the room: frame is t.data[n:].
		t.data = t.data[:n+len(frame)]
	} else {
		l.appendFrame(frame)
	}
	l.recCount++
	l.appendCount[typ]++
	return lsn, true, nil
}

// closeFrame writes the body length into a frame encoded behind the
// narrowest header, moving the body up when its length takes more than
// the one byte reserved.
func closeFrame(frame []byte) []byte {
	body := len(frame) - frameHeaderMin
	if body < 0x80 {
		frame[1] = byte(body)
		return frame
	}
	var length [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(length[:], uint64(body))
	frame = append(frame, length[1:w]...)
	copy(frame[1+w:], frame[frameHeaderMin:frameHeaderMin+body])
	copy(frame[1:], length[:w])
	return frame
}

// MustAppend is Append for call sites where the log cannot be frozen
// and the record is well-formed; it panics on error.
func (l *Log) MustAppend(rec Record) LSN {
	lsn, err := l.Append(rec)
	if err != nil {
		panic(err)
	}
	return lsn
}

// persist writes the retained bytes of [l.persisted, to) through the
// backend, syncs, and advances l.persisted. Callers hold flushMu and
// l.mu; persist drops l.mu around the IO (appends continue meanwhile —
// segment bytes never change once written, and a tail that grows
// copies them to a new array, leaving the old one as it was) and
// retakes it.
func (l *Log) persist(to LSN) error {
	be := l.backend
	if be == nil || to <= l.persisted {
		return nil
	}
	cs := l.chunks(l.persisted, to)
	l.mu.Unlock()
	err := func() error {
		for _, c := range cs {
			if err := be.WriteAt(c.seg, c.base, c.data); err != nil {
				return err
			}
		}
		return be.Sync()
	}()
	l.mu.Lock()
	if err == nil {
		l.persisted = to
	}
	return err
}

// Flush makes everything appended so far stable and returns the new end
// of stable log (the eLSN of the EOSL protocol). With a backend
// attached this is a real log force — the unpersisted tail is written
// and fsynced before the stable boundary moves; a backend failure is
// unrecoverable (the engine cannot honour durability it already
// promised) and panics.
func (l *Log) Flush() LSN {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.tail().end()
	recs := l.recCount
	if err := l.persist(end); err != nil {
		panic(fmt.Sprintf("wal: log force failed: %v", err))
	}
	if end > l.flushedLSN {
		l.flushedLSN = end
		l.stableRecs = recs
	}
	return l.flushedLSN
}

// SetBackend attaches the log's persistent device and persists the
// retained stable prefix through it (a fresh log persists an empty
// first segment). Everything appended afterward becomes durable at the
// next Flush.
func (l *Log) SetBackend(b Backend) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.backend != nil {
		return fmt.Errorf("wal: log already has a backend")
	}
	l.backend, l.persisted = b, l.segs[0].base
	err := l.persist(l.flushedLSN)
	// A segment that starts at the stable boundary holds no stable byte
	// yet, but gets its file all the same: a reopen finds where the log
	// ends from the last file alone.
	for _, s := range l.segs {
		if err == nil && s.base == l.flushedLSN {
			if err = b.WriteAt(s.base, s.base, nil); err == nil {
				err = b.Sync()
			}
		}
	}
	if err != nil {
		l.backend = nil
	}
	return err
}

// Backend returns the attached persistent device (nil for the in-memory
// log).
func (l *Log) Backend() Backend {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.backend
}

// CloseBackend closes the persistent device without a final force and
// freezes the log — the shape of a crash: the volatile tail is lost,
// the files hold exactly the stable prefix.
func (l *Log) CloseBackend() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.backend == nil {
		return nil
	}
	err := l.backend.Close()
	l.backend = nil
	l.frozen = true
	return err
}

// Records returns the total number of records appended.
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recCount
}

// StableRecords returns how many records the stable prefix holds.
func (l *Log) StableRecords() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stableRecs
}

// FlushedLSN returns the end of the stable log: every record with
// LSN < FlushedLSN survives a crash.
func (l *Log) FlushedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedLSN
}

// EndLSN returns the LSN one past the last appended record (the LSN the
// next Append will return).
func (l *Log) EndLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail().end()
}

// StartLSN returns the LSN of the oldest retained byte: FirstLSN until
// the first Release, the base of the oldest retained segment after.
// Every LSN in [StartLSN, EndLSN) is readable; StartLSN - FirstLSN is
// how many bytes have been released.
func (l *Log) StartLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// Segments returns how many segments the log retains, the tail
// included.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// AppendCount reports how many records of type t have been appended.
func (l *Log) AppendCount(t Type) int64 {
	if int(t) >= len(l.appendCount) {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendCount[t]
}

// Release drops every sealed segment that lies wholly below before and
// returns the new StartLSN. The bound is clamped to the stable (and,
// with a backend, persisted) boundary and to every registered hold, and
// the tail is never dropped, so a release can only take segments no
// reader is still entitled to. With a backend the segments' files are
// unlinked, oldest first: the files left behind are a gapless suffix
// whenever the process dies. The caller is responsible for `before`
// itself — the redo scan start point and the oldest active
// transaction's first record must not lie below it, and whatever makes
// that so (the master record) must already be durable.
func (l *Log) Release(before LSN) (LSN, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	before = min(before, l.flushedLSN)
	if l.backend != nil {
		before = min(before, l.persisted)
	}
	for _, h := range l.holds {
		before = min(before, h.at)
	}
	n := 0
	for n < len(l.segs)-1 && l.segs[n].end() <= before {
		n++
	}
	var dropped []LSN // the files to unlink, when the log has files
	if l.backend != nil {
		for _, s := range l.segs[:n] {
			dropped = append(dropped, s.base)
		}
	}
	// Shift down rather than reslice: the slots left behind would keep
	// the dropped segments reachable.
	kept := copy(l.segs, l.segs[n:])
	clear(l.segs[kept:])
	l.segs = l.segs[:kept]
	start, be := l.segs[0].base, l.backend
	l.mu.Unlock()
	for _, base := range dropped {
		if err := be.Remove(base); err != nil {
			return start, fmt.Errorf("wal: releasing segment %v: %w", base, err)
		}
	}
	return start, nil
}

// addHold registers a retention pin at lsn.
func (l *Log) addHold(lsn LSN) *hold {
	h := &hold{at: lsn}
	l.mu.Lock()
	l.holds = append(l.holds, h)
	l.mu.Unlock()
	return h
}

// moveHold advances h to lsn; a hold never moves backwards.
func (l *Log) moveHold(h *hold, lsn LSN) {
	l.mu.Lock()
	h.at = max(h.at, lsn)
	l.mu.Unlock()
}

// dropHold unregisters h (a no-op if it already is).
func (l *Log) dropHold(h *hold) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.holds {
		if x == h {
			l.holds = append(l.holds[:i], l.holds[i+1:]...)
			return
		}
	}
}

// fork returns a log over l's stable prefix: every segment wholly below
// the stable boundary is shared, and the stable bytes of the one the
// boundary falls in (or ends at) are copied into the fork's own tail —
// the copy is the only cost, so snapshots and clones are O(tail)
// whatever the log's length. A fork that is appended to extends that
// tail until the next frame would take it past the segment capacity,
// exactly where the log it was forked from would have sealed it.
func (l *Log) fork(frozen bool) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for n < len(l.segs)-1 && l.segs[n].end() < l.flushedLSN {
		n++
	}
	last := l.segs[n]
	segs := make([]*segment, n+1)
	copy(segs, l.segs[:n])
	segs[n] = &segment{base: last.base, data: append([]byte(nil), last.data[:l.flushedLSN-last.base]...), sealed: last.sealed}
	return &Log{
		segs:       segs,
		segCap:     l.segCap,
		flushedLSN: l.flushedLSN,
		frozen:     frozen,
		recCount:   l.stableRecs,
		stableRecs: l.stableRecs,
	}
}

// Snapshot returns the crash-surviving view of the log: only the stable
// prefix, frozen against appends. Recovery scans the snapshot.
func (l *Log) Snapshot() *Log { return l.fork(true) }

// Clone returns a writable continuation of the log's stable prefix.
// Recovery clones the crash snapshot so undo can append CLRs and the
// recovered engine can continue logging, while other recovery methods
// still see the pristine snapshot.
func (l *Log) Clone() *Log { return l.fork(false) }

// tornFrame returns the first n bytes of a synthetic record frame that
// claims a body far past any real one: what a log force cut short by a
// crash leaves behind.
func tornFrame(n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wal: torn-tail size must be positive, got %d", n)
	}
	frame := binary.AppendUvarint([]byte{byte(TypeUpdate)}, 1<<24)
	for len(frame) < n {
		frame = append(frame, 0xA5)
	}
	return frame[:n], nil
}

// TearTail corrupts the log with the first nBytes of a synthetic record
// frame past its stable end — the in-memory analogue of wal.TearDir: a
// crash captured mid-log-force, the torn frame never completed. Meant
// for crash snapshots (it ignores the frozen flag); CloneTrimmed must
// discard the tear via the codec's ErrTruncated path, exactly as
// OpenLogDir does for real files.
func (l *Log) TearTail(nBytes int) error {
	frame, err := tornFrame(nBytes)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tail()
	if l.flushedLSN < t.base {
		return fmt.Errorf("wal: tearing a log whose stable end %v is not in its tail segment", l.flushedLSN)
	}
	// A snapshot's tail is its own copy, so this cannot scribble over
	// the parent log.
	t.data = append(t.data[:l.flushedLSN-t.base], frame...)
	l.flushedLSN = t.end()
	l.torn = true
	return nil
}

// CloneTrimmed is Clone with the restart-path trim: the tail segment's
// frames are walked (sealed segments hold only complete ones) and the
// log is cut back to the last complete record, discarding a torn tail
// (ErrTruncated) the way OpenLogDir trims the last segment file. With
// no injected tear it is exactly Clone — and skips the walk.
func (l *Log) CloneTrimmed() *Log {
	c := l.Clone()
	l.mu.Lock()
	torn := l.torn
	l.mu.Unlock()
	if !torn {
		return c
	}
	t := c.tail()
	good := t.base
	for good < t.end() {
		_, next, err := decodeFrame(t.data, t.base, good)
		if err != nil {
			break // torn or corrupt tail: trim back to the last good frame
		}
		good = next
	}
	t.data = t.data[:good-t.base]
	c.flushedLSN = good
	return c
}

// Get decodes the record at lsn. It does not charge IO; use it for
// normal-operation rollback (the tail is in memory) and for undo
// backchain walks, whose cost the paper treats as constant across
// methods (§2.1). An LSN below StartLSN fails with ErrReleased.
func (l *Log) Get(lsn LSN) (Record, error) {
	l.mu.Lock()
	i, err := l.segIndex(lsn)
	if err != nil {
		l.mu.Unlock()
		return nil, err
	}
	base, data := l.segs[i].base, l.segs[i].data
	l.mu.Unlock()
	rec, _, err := decodeFrame(data, base, lsn)
	return rec, err
}

// frameSpan reads the frame header at the front of data: its width and
// the body length it claims. A header the end of data cuts short is
// ErrTruncated — there is no telling yet; a length that is not a
// minimal varint is ErrBadRecord.
func frameSpan(data []byte) (hdr int, body uint64, err error) {
	n := 0
	if len(data) >= frameHeaderMin {
		body, n = binary.Uvarint(data[1:])
	}
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("%w: frame header cut short", ErrTruncated)
	case n < 0 || (n > 1 && data[n] == 0):
		return 0, 0, fmt.Errorf("%w: frame length is not a minimal varint", ErrBadRecord)
	}
	return 1 + n, body, nil
}

// FrameHeaderSize returns how many of a frame's n bytes are its header.
func FrameHeaderSize(n int) int {
	hdr := frameHeaderMin
	for n-hdr >= 1<<(7*(hdr-1)) {
		hdr++
	}
	return hdr
}

// decodeFrame parses the frame at lsn in data, one segment's bytes (or
// a prefix of them) starting at LSN base. It returns the record and the
// LSN one past its frame. It takes no lock: callers pass bytes that no
// longer change.
func decodeFrame(data []byte, base, lsn LSN) (Record, LSN, error) {
	end := base + LSN(len(data))
	if lsn < base || lsn >= end {
		return nil, NilLSN, fmt.Errorf("%w: %v (log end %d)", ErrOutOfRange, lsn, end)
	}
	off := int(lsn - base)
	hdr, bodyLen, err := frameSpan(data[off:])
	if err != nil {
		// A frame header cut short is a torn tail, not a bad LSN.
		return nil, NilLSN, fmt.Errorf("frame at %v (log end %d): %w", lsn, end, err)
	}
	bodyStart := off + hdr
	if bodyLen > uint64(len(data)-bodyStart) {
		return nil, NilLSN, fmt.Errorf("%w: record at %v runs past log end", ErrTruncated, lsn)
	}
	t := Type(data[off])
	rec, err := newRecord(t)
	if err != nil {
		return nil, NilLSN, err
	}
	bodyEnd := bodyStart + int(bodyLen)
	if err := rec.decodeBody(data[bodyStart:bodyEnd], lsn); err != nil {
		return nil, NilLSN, fmt.Errorf("decoding %v at %v: %w", t, lsn, err)
	}
	return rec, base + LSN(bodyEnd), nil
}
