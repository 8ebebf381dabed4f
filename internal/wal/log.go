package wal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"logrec/internal/sim"
)

// logHeaderSize is the size of the fixed log header. It exists so that
// no record sits at offset 0 and LSN 0 can mean "none".
const logHeaderSize = 16

var logMagic = [8]byte{'L', 'O', 'G', 'R', 'E', 'C', 'W', 'L'}

// frameHeaderSize is the per-record frame: u32 body length + u8 type.
const frameHeaderSize = 5

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

// Log is an append-only write-ahead log. Appends land in the volatile
// tail; Flush moves the stable boundary (the "end of stable log" that
// EOSL communicates to the DC). A crash snapshot discards the volatile
// tail.
//
// Log is safe for concurrent use: a single mutex guards the tail and
// the stable boundary. The recovery experiments remain single-threaded
// over virtual time (the mutex is uncontended there); the concurrent
// write path (GroupCommitter, tc.Session) appends from many goroutines.
type Log struct {
	mu         sync.Mutex
	buf        []byte
	flushedLSN LSN
	frozen     bool

	// recCount is the total number of records appended; stableRecs is
	// how many of them the stable prefix holds (set by Flush). The
	// group committer diffs stableRecs across flushes for exact
	// records-per-flush accounting.
	recCount   int64
	stableRecs int64

	// appendCount tracks records appended, by type, for statistics.
	appendCount map[Type]int64

	// torn marks a snapshot whose tail TearTail corrupted; CloneTrimmed
	// only pays its frame walk when set.
	torn bool

	// heldShip counts shipped bytes held past flushedLSN awaiting the
	// rest of their frame (AppendStable's receive buffer; 0 on any log
	// that is not a shipping target). A standby log must drop them
	// (DropPartialTail) before its first local Append or Flush.
	heldShip int

	// backend, when non-nil, is the log's persistent device: Flush
	// writes the unpersisted suffix and fsyncs before moving the stable
	// boundary, so "stable" means on-disk, not just in-memory.
	// persisted is how many bytes of buf the backend already holds;
	// flushMu serializes flushers so concurrent forces (group-commit
	// leader, WAL-protocol page-flush force) never interleave their
	// backend writes. Appends stay concurrent with an in-flight force:
	// Flush captures the tail boundary under mu, performs the IO
	// without it, and only then advances the stable boundary.
	backend   Backend
	persisted int64
	flushMu   sync.Mutex
}

// NewLog creates an empty log.
func NewLog() *Log {
	buf := make([]byte, logHeaderSize)
	copy(buf, logMagic[:])
	binary.BigEndian.PutUint32(buf[8:], 1) // version
	return &Log{
		buf:         buf,
		flushedLSN:  LSN(logHeaderSize),
		appendCount: make(map[Type]int64),
	}
}

// Append encodes rec at the log tail and returns its LSN. The record is
// volatile until the next Flush.
func (l *Log) Append(rec Record) (LSN, error) {
	body := rec.encodeBody(nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return NilLSN, fmt.Errorf("wal: append to frozen log")
	}
	lsn := LSN(len(l.buf))
	l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(len(body)))
	l.buf = append(l.buf, byte(rec.Type()))
	l.buf = append(l.buf, body...)
	l.recCount++
	l.appendCount[rec.Type()]++
	return lsn, nil
}

// MustAppend is Append for call sites where the log cannot be frozen;
// it panics on error.
func (l *Log) MustAppend(rec Record) LSN {
	lsn, err := l.Append(rec)
	if err != nil {
		panic(err)
	}
	return lsn
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
	end := len(l.buf)
	recs := l.recCount
	buf := l.buf
	be := l.backend
	from := l.persisted
	l.mu.Unlock()

	if be != nil && int64(end) > from {
		// buf is append-only: [from:end) is immutable even while other
		// goroutines extend the tail past end.
		if err := be.WriteAt(buf[from:end], from); err != nil {
			panic(fmt.Sprintf("wal: log force failed: %v", err))
		}
		if err := be.Sync(); err != nil {
			panic(fmt.Sprintf("wal: log force failed: %v", err))
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if int64(end) > l.persisted {
		l.persisted = int64(end)
	}
	if LSN(end) > l.flushedLSN {
		l.flushedLSN = LSN(end)
		l.stableRecs = recs
	}
	return l.flushedLSN
}

// SetBackend attaches the log's persistent device and persists the
// current stable prefix through it (a fresh log persists its header).
// Everything appended afterward becomes durable at the next Flush.
func (l *Log) SetBackend(b Backend) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.backend != nil {
		return fmt.Errorf("wal: log already has a backend")
	}
	if err := b.WriteAt(l.buf[:l.flushedLSN], 0); err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return err
	}
	l.backend = b
	l.persisted = int64(l.flushedLSN)
	return nil
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
// the file holds exactly the stable prefix.
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
	return LSN(len(l.buf))
}

// AppendCount reports how many records of type t have been appended.
func (l *Log) AppendCount(t Type) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendCount[t]
}

// Snapshot returns the crash-surviving view of the log: only the stable
// prefix, frozen against appends. Recovery scans the snapshot.
func (l *Log) Snapshot() *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Log{
		buf:         l.buf[:l.flushedLSN:l.flushedLSN],
		flushedLSN:  l.flushedLSN,
		frozen:      true,
		recCount:    l.stableRecs,
		stableRecs:  l.stableRecs,
		appendCount: make(map[Type]int64),
	}
}

// TearTail corrupts the log with the first nBytes of a synthetic record
// frame past its stable end — the in-memory analogue of wal.TearFile: a
// crash captured mid-log-force, the torn frame never completed. Meant
// for crash snapshots (it ignores the frozen flag); CloneTrimmed must
// discard the tear via the codec's ErrTruncated path, exactly as
// OpenLogFile does for a real file.
func (l *Log) TearTail(nBytes int) error {
	if nBytes <= 0 {
		return fmt.Errorf("wal: torn-tail size must be positive, got %d", nBytes)
	}
	frame := make([]byte, frameHeaderSize+nBytes)
	binary.BigEndian.PutUint32(frame, uint32(1<<24)) // body length far past any real frame
	frame[4] = byte(TypeUpdate)
	for i := frameHeaderSize; i < len(frame); i++ {
		frame[i] = 0xA5
	}
	frame = frame[:nBytes]
	l.mu.Lock()
	defer l.mu.Unlock()
	// Snapshot returns a capacity-clipped slice, so this append cannot
	// scribble over the parent log's tail.
	l.buf = append(l.buf[:l.flushedLSN], frame...)
	l.flushedLSN = LSN(len(l.buf))
	l.torn = true
	return nil
}

// CloneTrimmed is Clone with the restart-path trim: the copy's frames
// are walked from the start and the log is cut back to the last
// complete record, discarding a torn tail (ErrTruncated) the way
// OpenLogFile trims a real log file. With no injected tear it is
// exactly Clone — and skips the walk.
func (l *Log) CloneTrimmed() *Log {
	l.mu.Lock()
	torn := l.torn
	l.mu.Unlock()
	if !torn {
		return l.Clone()
	}
	c := l.Clone()
	end := FirstLSN()
	var recs int64
	for int(end) < len(c.buf) {
		_, next, err := c.decodeAt(end)
		if err != nil {
			break // torn or corrupt tail: trim back to the last good frame
		}
		recs++
		end = next
	}
	if int(end) < len(c.buf) {
		c.buf = c.buf[:end]
		c.flushedLSN = end
		c.recCount = recs
		c.stableRecs = recs
	}
	return c
}

// Clone returns a writable copy of the log's stable prefix. Recovery
// clones the crash snapshot so undo can append CLRs and the recovered
// engine can continue logging, while other recovery methods still see
// the pristine snapshot.
func (l *Log) Clone() *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := make([]byte, l.flushedLSN)
	copy(buf, l.buf[:l.flushedLSN])
	return &Log{
		buf:         buf,
		flushedLSN:  l.flushedLSN,
		recCount:    l.stableRecs,
		stableRecs:  l.stableRecs,
		appendCount: make(map[Type]int64),
	}
}

// Get decodes the record at lsn. It does not charge IO; use it for
// normal-operation rollback (the tail is in memory) and for undo
// backchain walks, whose cost the paper treats as constant across
// methods (§2.1).
func (l *Log) Get(lsn LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, _, err := l.decodeAt(lsn)
	return rec, err
}

// readAt is the locked decode used by scanners; like decodeAt it
// returns the record and the LSN one past its frame.
func (l *Log) readAt(lsn LSN) (Record, LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decodeAt(lsn)
}

// decodeAt parses the frame at lsn, returning the record and the LSN
// one past its frame. Callers must hold l.mu.
func (l *Log) decodeAt(lsn LSN) (Record, LSN, error) {
	rec, end, err := decodeFrame(l.buf, int(lsn))
	if err != nil {
		return nil, NilLSN, err
	}
	return rec, LSN(end), nil
}

// decodeFrame parses the frame at byte offset off in buf, where buf is
// a whole-log byte view (fixed header included, offsets are LSNs). It
// returns the record and the offset one past its frame. This is the
// lock-free core shared by the locked decodeAt and the segment-scan
// workers, which run over an immutable snapshot of the stable prefix.
func decodeFrame(buf []byte, off int) (Record, int, error) {
	if off < logHeaderSize || off >= len(buf) {
		return nil, 0, fmt.Errorf("%w: %v (log end %d)", ErrOutOfRange, LSN(off), len(buf))
	}
	if off+frameHeaderSize > len(buf) {
		// A frame header cut short is a torn tail, not a bad LSN.
		return nil, 0, fmt.Errorf("%w: frame header at %v crosses log end %d", ErrTruncated, LSN(off), len(buf))
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[off:]))
	t := Type(buf[off+4])
	bodyStart := off + frameHeaderSize
	if bodyStart+bodyLen > len(buf) {
		return nil, 0, fmt.Errorf("%w: record at %v runs past log end", ErrTruncated, LSN(off))
	}
	rec, err := newRecord(t)
	if err != nil {
		return nil, 0, err
	}
	if err := rec.decodeBody(buf[bodyStart : bodyStart+bodyLen]); err != nil {
		return nil, 0, fmt.Errorf("decoding %v at %v: %w", t, LSN(off), err)
	}
	return rec, bodyStart + bodyLen, nil
}

// stableView returns the stable prefix as an immutable byte view. The
// log buffer is append-only and the stable prefix never mutates, so the
// view stays valid while appends continue past it.
func (l *Log) stableView() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf[:l.flushedLSN:l.flushedLSN]
}

// Scanner iterates the stable log in order, charging sequential log-page
// read costs to a clock (which may be nil for uncharged scans, e.g.
// tests and statistics).
type Scanner struct {
	log  *Log
	next LSN
	pageCharger
}

// pageCharger is the one log-read accountant both scanners embed: it
// bills each log page once, in order, as the scan first touches it.
type pageCharger struct {
	clock *sim.Clock // nil scans without charging IO
	cost  ScanCost
	// lastPage is the index of the log page most recently charged.
	lastPage  int64
	pagesRead int64
}

// newPageCharger starts with no page charged; a non-positive page size
// selects the default cost model.
func newPageCharger(clock *sim.Clock, cost ScanCost) pageCharger {
	if cost.PageSize <= 0 {
		cost = DefaultScanCost()
	}
	return pageCharger{clock: clock, cost: cost, lastPage: -1}
}

// charge bills sequential log-page reads for the byte range [from,to).
func (c *pageCharger) charge(from, to LSN) {
	first := int64(from) / int64(c.cost.PageSize)
	last := int64(to-1) / int64(c.cost.PageSize)
	for p := first; p <= last; p++ {
		if p <= c.lastPage {
			continue
		}
		c.lastPage = p
		c.pagesRead++
		if c.clock != nil {
			c.clock.Advance(c.cost.PerPage)
		}
	}
}

// PagesRead reports how many log pages the scan has charged.
func (c *pageCharger) PagesRead() int64 { return c.pagesRead }

// NewScanner returns a scanner positioned at from (use FirstLSN for the
// whole log). clock may be nil to scan without charging IO.
func (l *Log) NewScanner(from LSN, clock *sim.Clock, cost ScanCost) *Scanner {
	if from < LSN(logHeaderSize) {
		from = LSN(logHeaderSize)
	}
	return &Scanner{log: l, next: from, pageCharger: newPageCharger(clock, cost)}
}

// FirstLSN is the LSN of the first record in any log.
func FirstLSN() LSN { return LSN(logHeaderSize) }

// Next returns the next record and its LSN. It returns ok=false at the
// end of the stable log.
func (s *Scanner) Next() (Record, LSN, bool, error) {
	if s.next >= s.log.FlushedLSN() {
		return nil, NilLSN, false, nil
	}
	lsn := s.next
	rec, end, err := s.log.readAt(lsn)
	if err != nil {
		return nil, NilLSN, false, err
	}
	s.charge(lsn, end)
	s.next = end
	return rec, lsn, true, nil
}
