package wal

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"logrec/internal/storage"
)

// fullLog builds a log holding at least one record of every type, with
// bodies on both sides of the 128 bytes where the frame header grows a
// byte, patches logging their length once (in place, no tail) and twice
// (with a tail), CLRs of both, written pages repeated, and trailing
// fields left out and written: the fuzz seed corpus and the torn-tail
// and cut-point fixture. Each transactional record but a transaction's
// first and its commit or abort points back at the one before it, and
// names its transaction by that first record, which opens it
// (OpensTxn).
func fullLog(t testing.TB) *Log {
	l := NewLog()
	prev := NilLSN
	add := func(r Record) {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %v: %v", r.Type(), err)
		}
		prev = lsn
	}
	txn := OpensTxn
	update := func(old, nw string) {
		add(&UpdateRec{TxnID: txn, KeyVal: 7, OldVal: []byte(old), NewVal: []byte(nw), PageID: 4, PrevLSN: prev})
	}
	add(&BeginCkptRec{})
	begin := prev
	prev = NilLSN // the transaction's first record points nowhere
	update("old", "new")
	first := prev
	txn = TxnID(first)
	// Patch shapes: one byte in the middle, growing, shrinking, the
	// first byte, the last byte, nothing at all, and a key, page and
	// shard wide enough for multi-byte varints.
	update("row-0007-v1-tail", "row-0007-v2-tail")
	update("row-v2", "row-v2-and-more")
	update("row-v2-and-more", "row")
	update("Xow", "row")
	update("row", "roW")
	update("same", "same")
	update("row-ab", "row-x") // one byte from logging two equal lengths
	// Middles of 64 bytes and more, whose length takes two bytes: logged
	// once when the two are equally long, twice when they are not.
	m62 := strings.Repeat("m", 62)
	update("<"+m62+">", "{"+m62+"}")
	update(strings.Repeat("p", 70), "q")
	add(&UpdateRec{TxnID: txn, KeyVal: 1 << 50, OldVal: []byte("a"), NewVal: []byte("b"), PageID: 70000, ShardID: 200, PrevLSN: prev})
	// Another transaction's first update on shard 2: a nil prev written
	// because the shard after it is not 0.
	chain := prev
	add(&UpdateRec{TxnID: OpensTxn, KeyVal: 11, OldVal: []byte("a"), NewVal: []byte("b"), PageID: 6, ShardID: 2})
	other := prev
	prev = chain
	add(&CLRRec{TxnID: txn, KeyVal: 7, Kind: CLRUndoUpdate, Skip: 9, Tail: 5, RestoreVal: []byte("v1"), PageID: 4, UndoNextLSN: first, PrevLSN: prev})
	add(&CLRRec{TxnID: txn, KeyVal: 7, Kind: CLRUndoUpdate, Skip: 9, InPlace: true, RestoreVal: []byte("v2"), PageID: 4, UndoNextLSN: first, PrevLSN: prev})
	add(&InsertRec{TxnID: txn, KeyVal: 8, Val: []byte("row"), PageID: 4, PrevLSN: prev})
	// A whole row of 150 bytes: a per-operation record with a 3-byte header.
	add(&DeleteRec{TxnID: txn, KeyVal: 9, OldVal: bytes.Repeat([]byte("gone "), 30), PageID: 5, PrevLSN: prev})
	add(&CLRRec{TxnID: txn, KeyVal: 7, Kind: CLRUndoUpdate, RestoreVal: []byte("old"), PageID: 4, UndoNextLSN: NilLSN, PrevLSN: prev})
	add(&ShardMapRec{TxnID: txn, SplitAt: 1 << 20, End: 1<<21 - 1, NewShard: 3, PrevLSN: prev})
	// The commit names its transaction from two bytes back, and the
	// shard-2 transaction's abort names it from one.
	add(&CommitRec{TxnID: txn})
	add(&AbortRec{TxnID: TxnID(other)})
	add(&DeltaRec{TCLSN: 100, FWLSN: 90, FirstDirty: 1,
		DirtySet: []storage.PageID{4, 5}, DirtyLSNs: []LSN{first, prev}, WrittenSet: []storage.PageID{3}})
	big := &DeltaRec{TCLSN: 100, FirstDirty: 200}
	for pid := storage.PageID(1); pid <= 200; pid++ {
		big.DirtySet = append(big.DirtySet, pid*97)
	}
	add(big)
	// Off shard 0, the ∆'s empty DirtyLSNs and the BW's shard are written.
	add(&DeltaRec{TCLSN: 101, DirtySet: []storage.PageID{6}, FirstDirty: 1, ShardID: 2})
	add(&BWRec{WrittenSet: []storage.PageID{4, 5, 6}, FWLSN: 95})
	add(&BWRec{WrittenSet: []storage.PageID{6}, FWLSN: 96, ShardID: 2})
	// ∆ records that stand in for their batch's BW record, with and
	// without DirtyLSNs, on shard 0 and on shard 2.
	for _, sh := range []ShardID{0, 2} {
		add(&DeltaRec{TCLSN: 102, FWLSN: 97, FirstDirty: 1, DirtySet: []storage.PageID{4, 5},
			DirtyLSNs: []LSN{first, prev}, WrittenSet: []storage.PageID{5, 6}, ShardID: sh, BW: true})
		add(&DeltaRec{TCLSN: 103, FWLSN: 98, FirstDirty: 0, DirtySet: []storage.PageID{6},
			WrittenSet: []storage.PageID{6}, ShardID: sh, BW: true})
		// A page flushed twice in the batch is listed twice: a gap of 0.
		add(&DeltaRec{TCLSN: 104, FWLSN: 99, FirstDirty: 1, DirtySet: []storage.PageID{4},
			WrittenSet: []storage.PageID{5, 5, 6}, ShardID: sh, BW: true})
	}
	add(&SMORec{Meta: TreeMeta{Root: 2, Height: 2, NextPID: 11},
		Images: []PageImage{{PageID: 10, Data: []byte("page-image-bytes")}}})
	add(&SMORec{Meta: TreeMeta{Root: 2, Height: 2, NextPID: 12}, ShardID: 1,
		Images: []PageImage{{PageID: 11, Data: bytes.Repeat([]byte{0xEE}, 300)}, {PageID: 2}}})
	add(&RSSPRec{RsspLSN: 12})
	// A long loser's CLR, named from far back: its first record is more
	// than a kilobyte below it.
	add(&CLRRec{TxnID: txn, KeyVal: 9, Kind: CLRUndoDelete, RestoreVal: []byte("gone"), PageID: 5, UndoNextLSN: first, PrevLSN: prev})
	if prev-first < 1<<10 {
		t.Fatalf("the loser's CLR at %v names its transaction only %d bytes back", prev, prev-first)
	}
	add(&EndCkptRec{BeginLSN: begin, Active: []ActiveTxn{{TxnID: txn, LastLSN: prev}, {TxnID: TxnID(other), LastLSN: other}},
		Routes: []RouteEntry{{Start: 0, Shard: 0}, {Start: 1 << 20, Shard: 3}}})
	l.Flush()
	for typ := TypeUpdate; typ <= TypeShardMap; typ++ {
		if l.AppendCount(typ) == 0 {
			t.Fatalf("fullLog holds no %v record", typ)
		}
	}
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
	// Seed corpus: the pristine log at every record and mid-frame, a torn
	// tail, and bit-flipped copies.
	pristine := stableBytes(f, l)
	for _, lsn := range drainScan(l.NewScanner(FirstLSN(), nil, ScanCost{}).Next).lsns {
		f.Add(pristine, uint64(lsn))
	}
	f.Add(pristine, uint64(len(pristine)/2))
	f.Add(pristine[:len(pristine)-3], uint64(FirstLSN()))
	flipped := append([]byte(nil), pristine...)
	for i := 0; i < len(flipped); i += 17 {
		flipped[i] ^= 0x40
	}
	f.Add(flipped, uint64(FirstLSN()))
	f.Add([]byte{}, uint64(0))
	// Three spellings of an update that are not its byte string: two
	// equal patch lengths (and a tail), a nil prev and shard 0 written out,
	// and an in-place patch with a tail. A ∆ marked as its batch's BW
	// record over no written page, which means nothing. Then records that
	// are their byte string: a length-changing update at the row's start
	// (skip 0, before "ab", after "x", tail 3), an in-place CLR (kind
	// 1<<1|1) and a ∆ listing page 5 twice.
	for _, frame := range [][]byte{
		{byte(TypeUpdate), 12, 1, 1, 7, 4, 2<<1 | 1, 'a', 'b', 2, 'x', 'y', 0, 4},
		{byte(TypeUpdate), 12, 1, 1, 7, 4, 2 << 1, 'a', 'b', 'x', 'y', 4, 0, 0},
		{byte(TypeUpdate), 13, 1, 1, 7, 4, 2 << 1, 'a', 'b', 'x', 'y', 3, 4, 5, 6},
		{byte(TypeDelta), 5, 0, 0<<1 | 1, 0, 0, 0},
		{byte(TypeUpdate), 11, 1, 1, 7, 0, 2<<1 | 1, 'a', 'b', 1, 'x', 3, 4},
		{byte(TypeCLR), 9, 1, 1, 7, byte(CLRUndoUpdate)<<1 | 1, 4, 2, 'a', 'b', 4},
		{byte(TypeDelta), 7, 0, 2 << 1, 5, 0, 0, 0, 0},
	} {
		f.Add(frame, uint64(FirstLSN()))
	}
	// A commit at distance 0, which would end a transaction with no
	// records, then one that names the record three bytes back.
	f.Add([]byte{byte(TypeCommit), 1, 0, byte(TypeCommit), 1, 3}, uint64(FirstLSN()+3))

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
			// it came from, header and body: varints are minimal,
			// patches maximally trimmed and pointers distances, so one
			// record has one byte string — and the encoder refuses
			// nothing the decoder let through.
			if src := buf[LSN(off)-FirstLSN() : end-FirstLSN()]; !bytes.Equal(encodeFrame(rec, LSN(off)), src) {
				t.Fatalf("decode(%d): %v record re-encodes to %x, source %x", off, rec.Type(), encodeFrame(rec, LSN(off)), src)
			}
		}
		// A full forward scan must terminate: either cleanly at the end
		// of the buffer or with a decode error — never a panic or a
		// stuck cursor.
		sc := fz.NewScanner(FirstLSN(), nil, DefaultScanCost())
		for prev := NilLSN; ; {
			_, lsn, ok, err := sc.Next()
			if err != nil || !ok {
				break
			}
			if lsn <= prev {
				t.Fatalf("scanner stuck at %v", lsn)
			}
			prev = lsn
		}
	})
}

// FuzzAppendStableSplit ships arbitrary bytes to a standby in two pieces
// cut anywhere — inside a frame header included. Whatever the bytes
// hold, AppendStable must not panic, must count stable exactly the
// frames decodeFrame accepts (and none behind the first it rejects),
// and must end where shipping the same bytes in one piece ends.
func FuzzAppendStableSplit(f *testing.F) {
	pristine := stableBytes(f, fullLog(f))
	for _, cut := range []int{0, 1, 17, 18, len(pristine) / 2, len(pristine) - 1, len(pristine)} {
		f.Add(pristine, uint16(cut))
	}
	torn, _ := tornFrame(9)
	f.Add(append(append([]byte(nil), pristine...), torn...), uint16(len(pristine)+2))
	flipped := append([]byte(nil), pristine...)
	for i := 0; i < len(flipped); i += 23 {
		flipped[i] ^= 0x40
	}
	f.Add(flipped, uint16(len(flipped)/3))
	f.Add([]byte{byte(TypeCommit), 0x80}, uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		whole := newLog(modelSegCap)
		whole.AppendStable(FirstLSN(), data)

		split := newLog(modelSegCap)
		mark, _ := split.AppendStable(FirstLSN(), data[:min(int(cut), len(data))])
		// A rejected frame moved the watermark back: resume from it.
		split.AppendStable(mark, data[mark-FirstLSN():])
		if split.FlushedLSN() != whole.FlushedLSN() || split.StableRecords() != whole.StableRecords() {
			t.Fatalf("cut at %d: stable end %v with %d records, in one piece %v with %d",
				cut, split.FlushedLSN(), split.StableRecords(), whole.FlushedLSN(), whole.StableRecords())
		}

		stable := stableBytes(t, split)
		if !bytes.HasPrefix(data, stable) {
			t.Fatalf("cut at %d: the standby's stable bytes are not the bytes shipped", cut)
		}
		var frames int64
		at := FirstLSN()
		for at < split.FlushedLSN() {
			_, next, err := decodeFrame(stable, FirstLSN(), at)
			if err != nil {
				t.Fatalf("cut at %d: ingested a frame that does not decode: %v", cut, err)
			}
			at, frames = next, frames+1
		}
		if frames != split.StableRecords() {
			t.Fatalf("cut at %d: %d stable records over %d frames", cut, split.StableRecords(), frames)
		}
		// It stopped only where the bytes stop being a log.
		if rest := data[len(stable):]; len(rest) > 0 {
			if _, _, err := decodeFrame(rest, at, at); err == nil {
				t.Fatalf("cut at %d: a good frame at %v was left behind", cut, at)
			}
		}
	})
}

// TestDecodeTornTail cuts a valid log at every byte position inside its
// final record and checks the decoder reports the torn frame as
// ErrTruncated — whether the cut fell in the header or in the body —
// instead of panicking or returning garbage — the group committer crashes at
// record boundaries, but a real disk can tear anywhere.
func TestDecodeTornTail(t *testing.T) {
	l := fullLog(t)
	// Locate the last record's frame.
	var lastLSN LSN
	sc := l.NewScanner(FirstLSN(), nil, DefaultScanCost())
	for {
		_, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		lastLSN = lsn
	}
	endLSN := sc.b.end // where the scan stopped
	if endLSN != l.FlushedLSN() {
		t.Fatalf("scan ended at %v, flushed %v", endLSN, l.FlushedLSN())
	}

	for cut := int(lastLSN) + 1; cut < int(endLSN); cut++ {
		torn := rawLog(stableBytes(t, l)[:LSN(cut)-FirstLSN()])
		_, err := torn.Get(lastLSN)
		if !errors.Is(err, ErrTruncated) {
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
