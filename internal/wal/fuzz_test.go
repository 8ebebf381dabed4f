package wal

import (
	"bytes"
	"errors"
	"testing"

	"logrec/internal/storage"
)

// fullLog builds a log holding at least one record of every type, the
// fuzz seed corpus and the torn-tail test fixture.
func fullLog(t testing.TB) *Log {
	l := NewLog()
	recs := []Record{
		&BeginCkptRec{},
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("old"), NewVal: []byte("new"), PageID: 4, PrevLSN: NilLSN},
		// Patch shapes: one byte in the middle, growing, shrinking, the
		// first byte, the last byte, nothing at all, and a key, page and
		// backchain wide enough for multi-byte varints.
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("row-0007-v1-tail"), NewVal: []byte("row-0007-v2-tail"), PageID: 4, PrevLSN: 16},
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("row-v2"), NewVal: []byte("row-v2-and-more"), PageID: 4, PrevLSN: 30},
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("row-v2-and-more"), NewVal: []byte("row"), PageID: 4, PrevLSN: 31},
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("Xow"), NewVal: []byte("row"), PageID: 4, PrevLSN: 32},
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("row"), NewVal: []byte("roW"), PageID: 4, PrevLSN: 33},
		&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 7, OldVal: []byte("same"), NewVal: []byte("same"), PageID: 4, PrevLSN: 34},
		&UpdateRec{TxnID: 1 << 40, TableID: 300, KeyVal: 1 << 50, OldVal: []byte("a"), NewVal: []byte("b"), PageID: 70000, ShardID: 200, PrevLSN: 1 << 33},
		&CLRRec{TxnID: 1, TableID: 1, KeyVal: 7, Kind: CLRUndoUpdate, Skip: 9, Tail: 5, RestoreVal: []byte("v1"), PageID: 4, UndoNextLSN: 16, PrevLSN: 35},
		&InsertRec{TxnID: 1, TableID: 1, KeyVal: 8, Val: []byte("row"), PageID: 4, PrevLSN: 42},
		&DeleteRec{TxnID: 1, TableID: 1, KeyVal: 9, OldVal: []byte("gone"), PageID: 5, PrevLSN: 51},
		&CLRRec{TxnID: 1, TableID: 1, KeyVal: 7, Kind: CLRUndoUpdate, RestoreVal: []byte("old"), PageID: 4, UndoNextLSN: 42, PrevLSN: 60},
		&CommitRec{TxnID: 1, PrevLSN: 77},
		&AbortRec{TxnID: 2, PrevLSN: 78},
		&DeltaRec{TCLSN: 100, FWLSN: 90, FirstDirty: 1,
			DirtySet: []storage.PageID{4, 5}, DirtyLSNs: []LSN{88, 89}, WrittenSet: []storage.PageID{3}},
		&BWRec{WrittenSet: []storage.PageID{4, 5, 6}, FWLSN: 95},
		&SMORec{Meta: TreeMeta{TableID: 1, Root: 2, Height: 2, NextPID: 11},
			Images: []PageImage{{PageID: 10, Data: []byte("page-image-bytes")}}},
		&RSSPRec{RsspLSN: 12},
		&EndCkptRec{BeginLSN: 16, Active: []ActiveTxn{{TxnID: 2, LastLSN: 78}}},
	}
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("append %v: %v", r.Type(), err)
		}
	}
	l.Flush()
	return l
}

// rawLog wraps payload — log bytes from FirstLSN on, framed or not — as
// a frozen single-segment log whose stable end is the payload's.
func rawLog(payload []byte) *Log {
	return &Log{
		segs:       []*segment{{base: FirstLSN(), data: payload}},
		segCap:     segmentBytes,
		flushedLSN: FirstLSN() + LSN(len(payload)),
		frozen:     true,
	}
}

// FuzzDecodeAt hammers the WAL decoder with adversarial bytes: whatever
// the buffer holds, Get must never panic, must report torn or
// malformed frames as errors, and on success must hand back a frame
// that round-trips and makes forward progress.
func FuzzDecodeAt(f *testing.F) {
	l := fullLog(f)
	// Seed corpus: the pristine log at several offsets, a torn tail,
	// and bit-flipped copies.
	pristine := stableBytes(f, l)
	f.Add(pristine, uint64(FirstLSN()))
	f.Add(pristine, uint64(len(pristine)/2))
	f.Add(pristine[:len(pristine)-3], uint64(FirstLSN()))
	flipped := append([]byte(nil), pristine...)
	for i := 0; i < len(flipped); i += 17 {
		flipped[i] ^= 0x40
	}
	f.Add(flipped, uint64(FirstLSN()))
	f.Add([]byte{}, uint64(0))

	f.Fuzz(func(t *testing.T, buf []byte, off uint64) {
		fz := rawLog(buf)
		rec, end, err := decodeFrame(buf, FirstLSN(), LSN(off))
		if _, gerr := fz.Get(LSN(off)); (gerr == nil) != (err == nil) {
			t.Fatalf("Get(%d) = %v, decodeFrame = %v", off, gerr, err)
		}
		if err == nil {
			if rec == nil {
				t.Fatalf("decode(%d): nil record without error", off)
			}
			if end <= LSN(off) || end > fz.FlushedLSN() {
				t.Fatalf("decode(%d): end %d out of bounds (log end %v)", off, end, fz.FlushedLSN())
			}
			// A successfully decoded record must re-encode to the bytes
			// it came from: varints are minimal and patches maximally
			// trimmed, so one record has one byte string.
			body := rec.encodeBody(nil)
			if src := buf[LSN(off)-FirstLSN()+frameHeaderSize : end-FirstLSN()]; !bytes.Equal(body, src) {
				t.Fatalf("decode(%d): %v record re-encodes to %x, source %x", off, rec.Type(), body, src)
			}
		}
		// A full forward scan must terminate: either cleanly at the end
		// of the buffer or with a decode error — never a panic or a
		// stuck cursor.
		sc := fz.NewScanner(FirstLSN(), nil, DefaultScanCost())
		for {
			_, lsn, ok, err := sc.Next()
			if err != nil || !ok {
				break
			}
			if sc.next <= lsn {
				t.Fatalf("scanner stuck at %v", lsn)
			}
		}
	})
}

// TestDecodeTornTail cuts a valid log at every byte position inside its
// final record and checks the decoder reports the torn frame as an
// error (ErrTruncated once the frame header is readable) instead of
// panicking or returning garbage — the group committer crashes at
// record boundaries, but a real disk can tear anywhere.
func TestDecodeTornTail(t *testing.T) {
	l := fullLog(t)
	// Locate the last record's frame.
	var lastLSN, endLSN LSN
	sc := l.NewScanner(FirstLSN(), nil, DefaultScanCost())
	for {
		_, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		lastLSN, endLSN = lsn, sc.next
	}
	if endLSN != l.FlushedLSN() {
		t.Fatalf("scan ended at %v, flushed %v", endLSN, l.FlushedLSN())
	}

	for cut := int(lastLSN) + 1; cut < int(endLSN); cut++ {
		torn := rawLog(stableBytes(t, l)[:LSN(cut)-FirstLSN()])
		_, err := torn.Get(lastLSN)
		if err == nil {
			t.Fatalf("cut at %d: decode of torn record succeeded", cut)
		}
		if int(lastLSN)+frameHeaderSize <= cut && !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
		// Scanning the torn log must surface the same error, after
		// yielding every intact record.
		sc := torn.NewScanner(FirstLSN(), nil, DefaultScanCost())
		n := 0
		for {
			_, _, ok, serr := sc.Next()
			if serr != nil {
				break
			}
			if !ok {
				t.Fatalf("cut at %d: scan ended cleanly inside a torn record", cut)
			}
			n++
		}
		if want := recordsBefore(l, lastLSN); n != want {
			t.Fatalf("cut at %d: scanned %d intact records, want %d", cut, n, want)
		}
	}
}

func recordsBefore(l *Log, stop LSN) int {
	sc := l.NewScanner(FirstLSN(), nil, DefaultScanCost())
	n := 0
	for {
		_, lsn, ok, err := sc.Next()
		if err != nil || !ok || lsn >= stop {
			return n
		}
		n++
	}
}

// TestDecodeBitFlips corrupts every byte of a valid log in turn; every
// record must either decode (the flip hit a value byte, not framing) or
// fail cleanly — and a flipped length can never send the scanner out of
// bounds.
func TestDecodeBitFlips(t *testing.T) {
	l := fullLog(t)
	pristine := stableBytes(t, l)
	for i := range pristine {
		buf := append([]byte(nil), pristine...)
		buf[i] ^= 0xFF
		fz := rawLog(buf)
		sc := fz.NewScanner(FirstLSN(), nil, DefaultScanCost())
		for {
			rec, _, ok, err := sc.Next()
			if err != nil || !ok {
				break
			}
			_ = rec
		}
	}
	// Sanity: the flips never reached the log they were copied from.
	if !bytes.Equal(stableBytes(t, l), pristine) {
		t.Fatal("pristine log clobbered")
	}
}
