package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// fillLog appends n committed single-update transactions and flushes.
func fillLog(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn := l.MustAppend(&UpdateRec{
			TxnID: OpensTxn, TableID: 1, KeyVal: uint64(i),
			OldVal: []byte("old"), NewVal: []byte(fmt.Sprintf("new-%d", i)),
			PageID: 7, ShardID: 0,
		})
		l.MustAppend(&CommitRec{TxnID: TxnID(lsn), PrevLSN: lsn})
	}
	l.Flush()
}

// shipAll pumps every available segment from src into dst with the
// given segment size, asserting convergence.
func shipAll(t *testing.T, src, dst *Log, segBytes int) {
	t.Helper()
	r := src.NewShipReader(dst.FlushedLSN())
	for {
		seg, ok, err := r.Next(segBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		mark, err := dst.AppendStable(seg.From, seg.Data)
		if err != nil {
			t.Fatal(err)
		}
		if mark < seg.End() {
			r.Resume(mark)
		}
	}
	if got, want := dst.FlushedLSN(), src.FlushedLSN(); got != want {
		t.Fatalf("standby stable end %v, primary %v", got, want)
	}
}

// stableBytes flattens l's stable log, FirstLSN on.
func stableBytes(t testing.TB, l *Log) []byte {
	t.Helper()
	b, err := l.ReadStable(FirstLSN(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestShipRoundTrip(t *testing.T) {
	primary := NewLog()
	fillLog(t, primary, 200)
	for _, segBytes := range []int{16, 64, 4096, 1 << 20} {
		standby := NewLog()
		shipAll(t, primary, standby, segBytes)
		if !bytes.Equal(stableBytes(t, primary), stableBytes(t, standby)) {
			t.Fatalf("segBytes=%d: shipped log bytes differ from primary", segBytes)
		}
		if got, want := standby.StableRecords(), primary.StableRecords(); got != want {
			t.Fatalf("segBytes=%d: standby has %d stable records, primary %d", segBytes, got, want)
		}
	}
}

func TestShipResumesAcrossFlushes(t *testing.T) {
	primary := NewLog()
	standby := NewLog()
	fillLog(t, primary, 20)
	shipAll(t, primary, standby, 128)
	// More primary traffic after the standby caught up; shipping resumes
	// from the standby's watermark.
	fillLog(t, primary, 20)
	shipAll(t, primary, standby, 128)
	if !bytes.Equal(stableBytes(t, primary), stableBytes(t, standby)) {
		t.Fatal("resumed ship diverged from primary")
	}
}

func TestAppendStableDuplicateIsNoop(t *testing.T) {
	primary := NewLog()
	fillLog(t, primary, 5)
	standby := NewLog()
	seg, ok, err := primary.NewShipReader(FirstLSN()).Next(0)
	if err != nil || !ok {
		t.Fatalf("reading segment: ok=%v err=%v", ok, err)
	}
	mark1, err := standby.AppendStable(seg.From, seg.Data)
	if err != nil {
		t.Fatal(err)
	}
	recs := standby.StableRecords()
	// The exact same segment again, and an overlapping re-send.
	mark2, err := standby.AppendStable(seg.From, seg.Data)
	if err != nil {
		t.Fatal(err)
	}
	if mark2 != mark1 || standby.StableRecords() != recs {
		t.Fatalf("duplicate segment changed the log: mark %v→%v, records %d→%d",
			mark1, mark2, recs, standby.StableRecords())
	}
	half := len(seg.Data) / 2
	mark3, err := standby.AppendStable(seg.From, seg.Data[:half])
	if err != nil {
		t.Fatal(err)
	}
	if mark3 != mark1 {
		t.Fatalf("overlapping re-send moved the watermark: %v → %v", mark1, mark3)
	}
}

func TestAppendStableGap(t *testing.T) {
	primary := NewLog()
	fillLog(t, primary, 10)
	r := primary.NewShipReader(FirstLSN())
	seg1, _, err := r.Next(128)
	if err != nil {
		t.Fatal(err)
	}
	seg2, ok, err := r.Next(128)
	if err != nil || !ok {
		t.Fatalf("second segment: ok=%v err=%v", ok, err)
	}
	standby := NewLog()
	// Deliver out of order: the delayed first segment leaves a gap.
	if _, err := standby.AppendStable(seg2.From, seg2.Data); !errors.Is(err, ErrShipGap) {
		t.Fatalf("gap segment: got %v, want ErrShipGap", err)
	}
	if standby.FlushedLSN() != FirstLSN() {
		t.Fatalf("gap segment moved the watermark to %v", standby.FlushedLSN())
	}
	// In-order delivery heals it.
	if _, err := standby.AppendStable(seg1.From, seg1.Data); err != nil {
		t.Fatal(err)
	}
	if _, err := standby.AppendStable(seg2.From, seg2.Data); err != nil {
		t.Fatal(err)
	}
}

// tornFrameBytes is the same partial frame TearTail/TearDir inject: a
// frame header promising a body far past any real frame, cut short.
func tornFrameBytes(n int) []byte {
	frame, err := tornFrame(n)
	if err != nil {
		panic(err)
	}
	return frame
}

func TestAppendStableTornTailHeldBack(t *testing.T) {
	primary := NewLog()
	fillLog(t, primary, 10)
	seg, _, err := primary.NewShipReader(FirstLSN()).Next(0)
	if err != nil {
		t.Fatal(err)
	}

	// A transfer torn mid-frame: the cut frame's bytes are buffered but
	// not counted stable until the rest arrives.
	cut := len(seg.Data) - 7
	standby := NewLog()
	mark, err := standby.AppendStable(seg.From, seg.Data[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if mark != seg.From+LSN(cut) {
		t.Fatalf("ingest watermark %v, want %v", mark, seg.From+LSN(cut))
	}
	if standby.FlushedLSN() >= mark {
		t.Fatalf("partial frame counted stable: FlushedLSN %v at ingest %v", standby.FlushedLSN(), mark)
	}
	// Ship the rest from the watermark; the buffered frame completes.
	if _, err := standby.AppendStable(mark, seg.Data[cut:]); err != nil {
		t.Fatal(err)
	}
	if standby.FlushedLSN() != seg.End() {
		t.Fatalf("standby at %v after heal, want %v", standby.FlushedLSN(), seg.End())
	}

	// DropPartialTail discards a buffered fragment (the promotion path).
	standby2 := NewLog()
	if _, err := standby2.AppendStable(seg.From, seg.Data[:cut]); err != nil {
		t.Fatal(err)
	}
	standby2.DropPartialTail()
	if got := standby2.EndLSN(); got != standby2.FlushedLSN() {
		t.Fatalf("partial tail survived the drop: end %v, stable %v", got, standby2.FlushedLSN())
	}

	// A TearTail-shaped garbage frame (16 MiB body claim) after the good
	// bytes: rejected as corrupt rather than buffered forever, with the
	// valid prefix kept.
	standby3 := NewLog()
	torn := append(append([]byte(nil), seg.Data...), tornFrameBytes(40)...)
	mark3, err := standby3.AppendStable(seg.From, torn)
	if err == nil {
		t.Fatal("torn-tail garbage frame ingested without error")
	}
	if mark3 != seg.End() {
		t.Fatalf("garbage frame moved the watermark to %v, want %v", mark3, seg.End())
	}
	if !bytes.Equal(stableBytes(t, standby3), seg.Data) {
		t.Fatal("garbage frame bytes leaked into the standby log")
	}
}

// TestAppendStableEveryCutPoint ships a log of every record type, with
// frame headers of two and of three bytes, in two pieces cut at every
// byte and then one byte at a time. A cut inside a header — before the
// length, or inside a length varint — is one more way a frame arrives
// incomplete: the standby's stable end is always the last frame boundary
// the bytes so far cover, never a byte more, and the whole log arrives
// byte for byte. The standby's segments are 256 bytes, so frames also
// land on both sides of segment seams.
func TestAppendStableEveryCutPoint(t *testing.T) {
	primary := fullLog(t)
	all, end := stableBytes(t, primary), primary.FlushedLSN()
	// boundary[i] is the last frame boundary at or below FirstLSN+i.
	boundary := make([]LSN, len(all)+1)
	boundary[len(all)] = end
	sc := primary.NewScanner(FirstLSN(), nil, ScanCost{})
	for {
		_, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		boundary[lsn-FirstLSN()] = lsn
	}
	for i := range boundary {
		if boundary[i] == NilLSN {
			boundary[i] = boundary[i-1]
		}
	}
	ship := func(standby *Log, from, to int) {
		t.Helper()
		mark, err := standby.AppendStable(FirstLSN()+LSN(from), all[from:to])
		if err != nil {
			t.Fatalf("bytes [%d, %d): %v", from, to, err)
		}
		if want := FirstLSN() + LSN(to); mark != want {
			t.Fatalf("bytes [%d, %d): ingest watermark %v, want %v", from, to, mark, want)
		}
		if got := standby.FlushedLSN(); got != boundary[to] {
			t.Fatalf("bytes [%d, %d): stable end %v, want the frame boundary %v", from, to, got, boundary[to])
		}
	}
	arrived := func(standby *Log, how string) {
		t.Helper()
		if !bytes.Equal(stableBytes(t, standby), all) || standby.StableRecords() != primary.StableRecords() {
			t.Fatalf("%s: the standby's %d stable records differ from the primary's %d", how, standby.StableRecords(), primary.StableRecords())
		}
	}
	for cut := 0; cut <= len(all); cut++ {
		standby := newLog(modelSegCap)
		ship(standby, 0, cut)
		ship(standby, cut, len(all))
		arrived(standby, fmt.Sprintf("cut at %d", cut))
	}
	standby := newLog(modelSegCap)
	for i := range all {
		ship(standby, i, i+1)
	}
	arrived(standby, "byte by byte")

	// Garbage behind the good bytes: a torn frame is held only while its
	// length varint is cut short — there is no claim to judge yet — and
	// rejected the moment the claim (16 MiB) can be read.
	claimAt := len(binary.AppendUvarint([]byte{0}, 1<<24))
	for n := 1; n <= claimAt+3; n++ {
		mark, err := standby.AppendStable(end, tornFrameBytes(n))
		switch {
		case n < claimAt && (err != nil || mark != end+LSN(n)):
			t.Fatalf("torn frame of %d bytes: watermark %v, %v; want it held", n, mark, err)
		case n >= claimAt && (err == nil || mark != end):
			t.Fatalf("torn frame of %d bytes: watermark %v, %v; want it rejected at once", n, mark, err)
		}
		if standby.FlushedLSN() != end {
			t.Fatalf("torn frame of %d bytes moved the stable end to %v", n, standby.FlushedLSN())
		}
		standby.DropPartialTail()
	}
	if max := binary.AppendUvarint([]byte{byte(TypeSMO)}, maxShipFrameBody); !saneFrameClaim(max) || saneFrameClaim(binary.AppendUvarint(max[:1], maxShipFrameBody+1)) {
		t.Fatal("saneFrameClaim does not draw the line at maxShipFrameBody")
	}
}

func TestAppendStableCorruptFrameRejected(t *testing.T) {
	primary := NewLog()
	fillLog(t, primary, 3)
	seg, _, err := primary.NewShipReader(FirstLSN()).Next(0)
	if err != nil {
		t.Fatal(err)
	}
	// A complete frame of an unknown record type after the good bytes.
	bad := []byte{0xFF, 2, 1, 2}
	standby := NewLog()
	mark, err := standby.AppendStable(seg.From, append(append([]byte(nil), seg.Data...), bad...))
	if err == nil {
		t.Fatal("corrupt complete frame ingested without error")
	}
	if mark != seg.End() {
		t.Fatalf("valid prefix not kept: watermark %v, want %v", mark, seg.End())
	}
	// The log remains usable from the watermark.
	fillLog(t, primary, 3)
	shipAll(t, primary, standby, 0)
}

func TestShipReaderOverFileBackend(t *testing.T) {
	dir := t.TempDir()
	primary := NewLog()
	be, err := CreateFileBackend(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetBackend(be); err != nil {
		t.Fatal(err)
	}
	fillLog(t, primary, 50)
	if primary.Backend().Stats().Reads != 0 {
		t.Fatal("unexpected backend reads before shipping")
	}

	// The standby also persists through a backend; its file must be
	// byte-identical to the primary's after the ship.
	standby := NewLog()
	sbe, err := CreateFileBackend(filepath.Join(dir, "standby-wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.SetBackend(sbe); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, standby, 4096)
	if primary.Backend().Stats().Reads == 0 {
		t.Fatal("shipping did not read through the log device")
	}
	if err := standby.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenLogDir(filepath.Join(dir, "standby-wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stableBytes(t, reopened), stableBytes(t, primary)) {
		t.Fatal("standby log file differs from the primary's stable prefix")
	}
	if err := reopened.CloseBackend(); err != nil {
		t.Fatal(err)
	}
}

func TestReadStableSurvivesCrash(t *testing.T) {
	// File mode: after a crash closes the backend, the stable prefix is
	// still drainable from memory — the promotion path's final drain.
	dir := t.TempDir()
	primary := NewLog()
	be, err := CreateFileBackend(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.SetBackend(be); err != nil {
		t.Fatal(err)
	}
	fillLog(t, primary, 10)
	want := stableBytes(t, primary)
	if err := primary.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	got, err := primary.ReadStable(FirstLSN(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stable bytes changed across the crash close")
	}
}
