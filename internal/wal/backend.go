package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"logrec/internal/storage"
)

// Backend is the log's persistent device: one append-mostly byte store
// per log segment, named by the segment's base LSN, whose Sync is a
// durability barrier. When a Log has a backend, Flush writes the
// not-yet-persisted suffix of the tail and then Syncs — a genuine log
// force, so wal.GroupCommitter batches amortize real fsyncs, one per
// batch rather than one per commit.
//
// The log is byte-oriented (a record frame may straddle any block
// boundary) so the backend speaks bytes, not pages; it reuses the
// storage.IOHook type so one observer can account log forces alongside
// data-device IO. OpWrite events carry the byte count written, OpSync
// events carry 0.
type Backend interface {
	// WriteAt persists p at LSN lsn inside the segment based at base,
	// creating the segment's store on its first write (p may be empty
	// just to create it). Writes arrive in LSN order; when one opens a
	// new segment, every earlier segment must be durable before the new
	// one becomes visible, so what survives a crash is always a gapless
	// run of segments.
	WriteAt(base, lsn LSN, p []byte) error
	// ReadAt fills p from LSN lsn inside the segment based at base
	// (io.ReaderAt semantics). The log shipper reads the stable prefix
	// through it, so a standby tails what is actually on the log device,
	// not the in-memory tail.
	ReadAt(base, lsn LSN, p []byte) (int, error)
	// Sync is the durability barrier (fsync) over everything written
	// since the last one.
	Sync() error
	// Remove drops the segment based at base (Log.Release).
	Remove(base LSN) error
	// SetIOHook subscribes fn to writes and syncs (nil unsubscribes).
	SetIOHook(fn storage.IOHook)
	// Close releases the backend. A crash Closes without a final Sync.
	Close() error
}

// A segment file is a segHeaderSize-byte header followed by the
// segment's bytes; the header is outside LSN space, so the byte at LSN x
// of the segment based at b sits at file offset segHeaderSize + (x - b).
//
//	[0:8)   magic "LOGRECWL"
//	[8:12)  format version (9: no record names a table, where 8 logged
//	        one in every data record and SMO; 8: an in-place patch logs
//	        no tail, a commit or abort no prev, and written pages are
//	        ascending gaps; 7 logged all three; 6 logged the TC's
//	        counter where 7 names a
//	        transaction by the distance back to its first record; 5 had
//	        no BW mark in a ∆ record's
//	        WrittenSet count; 4 logged a same-length
//	        patch's length twice and wrote trailing zero fields; 3 had a
//	        fixed 5-byte header, absolute pointers and fixed-width system
//	        records; 2 had whole-image updates; 1 was the single wal.log
//	        file). Any other version is refused, never decoded.
//	[12:16) frame checksum kind (0 = none; reserved for per-frame CRCs)
//	[16:24) base LSN
const (
	segHeaderSize = 24
	segVersion    = 9
	segSuffix     = ".seg"
)

var segMagic = [8]byte{'L', 'O', 'G', 'R', 'E', 'C', 'W', 'L'}

// segFileName names a segment file by its base LSN, zero-padded so
// lexical order is LSN order.
func segFileName(base LSN) string { return fmt.Sprintf("%020d%s", uint64(base), segSuffix) }

func segHeader(base LSN) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic[:])
	binary.BigEndian.PutUint32(h[8:], segVersion)
	binary.BigEndian.PutUint64(h[16:], uint64(base))
	return h
}

// parseSegHeader validates a segment file's header and returns its base
// LSN. A header this decoder cannot read the segment by is ErrBadRecord.
func parseSegHeader(h []byte) (LSN, error) {
	if len(h) < segHeaderSize {
		return 0, fmt.Errorf("%w: %d bytes, too short for a segment header", ErrTruncated, len(h))
	}
	if string(h[:8]) != string(segMagic[:]) {
		return 0, fmt.Errorf("%w: not a log segment (bad magic)", ErrBadRecord)
	}
	if v := binary.BigEndian.Uint32(h[8:]); v != segVersion {
		return 0, fmt.Errorf("%w: segment format version %d not supported", ErrBadRecord, v)
	}
	if k := binary.BigEndian.Uint32(h[12:]); k != 0 {
		return 0, fmt.Errorf("%w: frame checksum kind %d not supported", ErrBadRecord, k)
	}
	base := LSN(binary.BigEndian.Uint64(h[16:]))
	if base < FirstLSN() {
		return 0, fmt.Errorf("segment base %v below the first LSN", base)
	}
	return base, nil
}

// listSegFiles returns the base LSNs of dir's segment files, ascending.
func listSegFiles(dir string) ([]LSN, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []LSN
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), segSuffix)
		if !ok || e.IsDir() {
			continue
		}
		base, err := strconv.ParseUint(name, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("segment file %q: name is not a base LSN", e.Name())
		}
		bases = append(bases, LSN(base))
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// FileBackend is the file implementation of Backend: a directory with
// one file per log segment.
type FileBackend struct {
	mu  sync.Mutex
	dir string
	// w is the file of the newest segment written, kept open; wBase is
	// its base LSN.
	w     *os.File
	wBase LSN
	// r caches the last older segment file ReadAt opened.
	r     *os.File
	rBase LSN
	// dirDirty records a file created or removed since the directory
	// was last synced.
	dirDirty bool
	hook     storage.IOHook
}

var _ Backend = (*FileBackend)(nil)

// CreateFileBackend creates the log directory dir, or empties it of
// segment files if it exists.
func CreateFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating log directory: %w", err)
	}
	old, err := listSegFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: creating log directory: %w", err)
	}
	for _, base := range old {
		if err := os.Remove(filepath.Join(dir, segFileName(base))); err != nil {
			return nil, fmt.Errorf("wal: creating log directory: %w", err)
		}
	}
	return &FileBackend{dir: dir}, nil
}

// Dir returns the log directory.
func (b *FileBackend) Dir() string { return b.dir }

func (b *FileBackend) path(base LSN) string { return filepath.Join(b.dir, segFileName(base)) }

// syncLocked fsyncs the write file and, when an entry changed, the
// directory. Callers hold b.mu.
func (b *FileBackend) syncLocked() error {
	if b.hook != nil {
		b.hook(storage.OpSync, 0)
	}
	if b.w != nil {
		if err := b.w.Sync(); err != nil {
			return fmt.Errorf("wal: log fsync: %w", err)
		}
	}
	if b.dirDirty {
		d, err := os.Open(b.dir)
		if err != nil {
			return fmt.Errorf("wal: log directory fsync: %w", err)
		}
		err = d.Sync()
		d.Close()
		if err != nil {
			return fmt.Errorf("wal: log directory fsync: %w", err)
		}
		b.dirDirty = false
	}
	return nil
}

// writeFile returns the open file of the segment based at base. Moving
// on to another segment seals the current one first — fsync, then
// close — so a segment file exists only once its predecessors are
// durable. Callers hold b.mu.
func (b *FileBackend) writeFile(base LSN) (*os.File, error) {
	if b.w != nil && b.wBase == base {
		return b.w, nil
	}
	if b.w != nil {
		if err := b.syncLocked(); err != nil {
			return nil, err
		}
		if err := b.w.Close(); err != nil {
			return nil, fmt.Errorf("wal: sealing segment %v: %w", b.wBase, err)
		}
		b.w = nil
	}
	f, err := os.OpenFile(b.path(base), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment %v: %w", base, err)
	}
	info, err := f.Stat()
	if err == nil && info.Size() < segHeaderSize {
		_, err = f.WriteAt(segHeader(base), 0)
		b.dirDirty = true
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: creating segment %v: %w", base, err)
	}
	b.w, b.wBase = f, base
	return f, nil
}

// WriteAt persists p at lsn in the segment based at base.
func (b *FileBackend) WriteAt(base, lsn LSN, p []byte) error {
	b.mu.Lock()
	if b.hook != nil {
		b.hook(storage.OpWrite, len(p))
	}
	f, err := b.writeFile(base)
	b.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(p, segHeaderSize+int64(lsn-base)); err != nil {
		return fmt.Errorf("wal: log write at %v: %w", lsn, err)
	}
	return nil
}

// ReadAt fills p from lsn in the segment based at base (the shipper's
// read path).
func (b *FileBackend) ReadAt(base, lsn LSN, p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.w
	if f == nil || b.wBase != base {
		if b.r == nil || b.rBase != base {
			nf, err := os.Open(b.path(base))
			if err != nil {
				return 0, fmt.Errorf("wal: opening segment %v: %w", base, err)
			}
			if b.r != nil {
				b.r.Close()
			}
			b.r, b.rBase = nf, base
		}
		f = b.r
	}
	n, err := f.ReadAt(p, segHeaderSize+int64(lsn-base))
	if err != nil {
		return n, fmt.Errorf("wal: log read at %v: %w", lsn, err)
	}
	return n, nil
}

// Sync fsyncs the segment file being written (sealed ones were synced
// when they were sealed) and, after a create or remove, the directory.
func (b *FileBackend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.syncLocked()
}

// Remove unlinks the file of the segment based at base. The unlink
// becomes durable with the next Sync; until then a crash may resurrect
// the file, which a reopen simply retains.
func (b *FileBackend) Remove(base LSN) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.r != nil && b.rBase == base {
		b.r.Close()
		b.r = nil
	}
	b.dirDirty = true
	return os.Remove(b.path(base))
}

// SetIOHook subscribes fn to writes and syncs.
func (b *FileBackend) SetIOHook(fn storage.IOHook) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hook = fn
}

// Close closes the open segment files without syncing.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var err error
	if b.w != nil {
		err = b.w.Close()
		b.w = nil
	}
	if b.r != nil {
		b.r.Close()
		b.r = nil
	}
	return err
}

// OpenLogDir reads the segment files in dir back into a Log — the
// restart path. It lists them, checks each header and that every
// segment starts where the one before it ends, and decodes every frame.
// Only the last file can be torn: a frame cut short by the crash (the
// codec reports ErrTruncated) is discarded and the file truncated back
// to the last complete frame — exactly the trim a real engine performs
// when the crash interrupted a log force — and a last file too short to
// hold its header (the crash interrupted its creation) is removed.
// Anything else that does not decode is corruption and fails the open.
// The returned Log is writable and keeps dir as its backend, so
// recovery can append CLRs and the recovered engine can continue
// logging durably.
func OpenLogDir(dir string) (*Log, error) {
	bases, err := listSegFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log directory: %w", err)
	}
	l := &Log{segCap: segmentBytes}
	for i, base := range bases {
		path := filepath.Join(dir, segFileName(base))
		last := i == len(bases)-1
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: reading log segment: %w", err)
		}
		hdrBase, err := parseSegHeader(buf)
		if errors.Is(err, ErrTruncated) && last && i > 0 {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: removing torn segment %s: %w", path, err)
			}
			break
		}
		if err == nil && hdrBase != base {
			err = fmt.Errorf("header says base %v", hdrBase)
		}
		if err == nil && i > 0 && base != l.tail().end() {
			err = fmt.Errorf("previous segment ends at %v: the log has a gap", l.tail().end())
		}
		if err != nil {
			return nil, fmt.Errorf("wal: log segment %s: %w", path, err)
		}
		data := buf[segHeaderSize:]
		good := base
		for good < base+LSN(len(data)) {
			rec, next, err := decodeFrame(data, base, good)
			if errors.Is(err, ErrTruncated) && last {
				break // torn tail: trim below
			}
			if err != nil {
				return nil, fmt.Errorf("wal: corrupt log record at %v: %w", good, err)
			}
			l.recCount++
			l.appendCount[rec.Type()]++
			good = next
		}
		if n := int(good - base); n < len(data) {
			if err := os.Truncate(path, segHeaderSize+int64(n)); err != nil {
				return nil, fmt.Errorf("wal: trimming torn tail at %v: %w", good, err)
			}
			data = data[:n]
		}
		// The tail keeps filling its file where the crash left it, its
		// array growing on the first append. A sealed segment stays
		// sealed: should it end up as the tail (its successor's torn
		// file was just removed), the first append opens a new segment
		// instead of writing to a file other directories may share by
		// hard link.
		l.segs = append(l.segs, &segment{base: base, data: data[:len(data):len(data)], sealed: !last})
	}
	if len(l.segs) == 0 {
		return nil, fmt.Errorf("wal: %s holds no log segments", dir)
	}
	l.flushedLSN = l.tail().end()
	l.stableRecs = l.recCount
	l.persisted = l.flushedLSN
	l.backend = &FileBackend{dir: dir}
	return l, nil
}

// TearDir appends the first n bytes of a synthetic record frame to the
// last segment file in dir — a crash captured mid-log-force, with a
// torn frame past the last complete one. OpenLogDir must trim it. Crash
// injection only.
func TearDir(dir string, n int) error {
	frame, err := tornFrame(n)
	if err != nil {
		return err
	}
	bases, err := listSegFiles(dir)
	if err != nil || len(bases) == 0 {
		return fmt.Errorf("wal: no log segment to tear in %s: %v", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segFileName(bases[len(bases)-1])), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening log segment to tear: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(frame, info.Size()); err != nil {
		return fmt.Errorf("wal: tearing log tail: %w", err)
	}
	return f.Sync()
}
