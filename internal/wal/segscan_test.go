package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"logrec/internal/sim"
	"logrec/internal/storage"
)

// fakeFrameBytes returns the encoding of a complete, valid commit
// frame — planted inside record bodies as a decoy so findFrame can
// lock onto a false boundary and the stitcher's continuity check has
// to catch it.
func fakeFrameBytes() []byte { return encodeFrame(&CommitRec{TxnID: 3, PrevLSN: 123}) }

func randVal(rng *rand.Rand, decoy []byte) []byte {
	n := rng.Intn(200)
	if rng.Intn(10) == 0 {
		// Occasionally huge, so frames straddle (and sometimes swallow
		// whole) small test segments.
		n = 2048 + rng.Intn(8192)
	}
	b := make([]byte, n)
	rng.Read(b)
	if n > len(decoy) && rng.Intn(3) == 0 {
		copy(b[rng.Intn(n-len(decoy)+1):], decoy)
	}
	return b
}

func buildRandomLog(rng *rand.Rand, n int) *Log {
	l := NewLog()
	decoy := fakeFrameBytes()
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			l.MustAppend(&CommitRec{TxnID: TxnID(rng.Intn(100)), PrevLSN: LSN(rng.Uint32())})
		case 1:
			l.MustAppend(&InsertRec{TxnID: TxnID(rng.Intn(100)), TableID: 1, KeyVal: rng.Uint64(),
				Val: randVal(rng, decoy), PageID: storage.PageID(rng.Uint32()), PrevLSN: LSN(rng.Uint32())})
		case 2:
			l.MustAppend(&DeleteRec{TxnID: TxnID(rng.Intn(100)), TableID: 1, KeyVal: rng.Uint64(),
				OldVal: randVal(rng, decoy), PageID: storage.PageID(rng.Uint32()), PrevLSN: LSN(rng.Uint32())})
		case 3:
			l.MustAppend(&UpdateRec{TxnID: TxnID(rng.Intn(100)), TableID: 1, KeyVal: rng.Uint64(),
				OldVal: randVal(rng, decoy), NewVal: randVal(rng, decoy),
				PageID: storage.PageID(rng.Uint32()), PrevLSN: LSN(rng.Uint32())})
		case 4:
			l.MustAppend(&SMORec{
				Meta:   TreeMeta{TableID: 1, Root: 5, Height: 2, NextPID: 9},
				Images: []PageImage{{PageID: storage.PageID(rng.Uint32()), Data: randVal(rng, decoy)}},
			})
		case 5:
			l.MustAppend(&EndCkptRec{BeginLSN: LSN(rng.Uint32()),
				Active: []ActiveTxn{{TxnID: TxnID(rng.Intn(50)), LastLSN: LSN(rng.Uint32())}}})
		}
	}
	l.Flush()
	return l
}

type scanDump struct {
	lsns   []LSN
	types  []Type
	bodies [][]byte
	err    error
}

func drainScan(next func() (Record, LSN, bool, error)) scanDump {
	var d scanDump
	for {
		rec, lsn, ok, err := next()
		if err != nil {
			d.err = err
			return d
		}
		if !ok {
			return d
		}
		d.lsns = append(d.lsns, lsn)
		d.types = append(d.types, rec.Type())
		d.bodies = append(d.bodies, rec.encodeBody(nil))
	}
}

func compareDumps(t *testing.T, ctx string, want, got scanDump) {
	t.Helper()
	if !reflect.DeepEqual(want.lsns, got.lsns) {
		t.Fatalf("%s: LSN sequence diverged: serial %d records, segmented %d", ctx, len(want.lsns), len(got.lsns))
	}
	if !reflect.DeepEqual(want.types, got.types) {
		t.Fatalf("%s: record type sequence diverged", ctx)
	}
	if !reflect.DeepEqual(want.bodies, got.bodies) {
		t.Fatalf("%s: record bodies diverged", ctx)
	}
	switch {
	case want.err == nil && got.err != nil:
		t.Fatalf("%s: segmented errored where serial did not: %v", ctx, got.err)
	case want.err != nil && got.err == nil:
		t.Fatalf("%s: serial errored where segmented did not: %v", ctx, want.err)
	case want.err != nil && want.err.Error() != got.err.Error():
		t.Fatalf("%s: errors diverge:\nserial:    %v\nsegmented: %v", ctx, want.err, got.err)
	}
}

// TestSegScannerMatchesSerialProperty is the decoder oracle: for
// fuzzed logs — decoy frames inside bodies, frames straddling and
// swallowing segments, torn tails, mid-log scan starts — the stitched
// stream must be byte-identical to wal.Scanner, with identical page
// accounting, virtual-time charge, and error position.
func TestSegScannerMatchesSerialProperty(t *testing.T) {
	cost := ScanCost{PageSize: 4096, PerPage: 250 * sim.Microsecond}
	cfgs := []SegConfig{
		{Workers: 1, SegmentBytes: 97, MaxAhead: 2},
		{Workers: 2, SegmentBytes: 512},
		{Workers: 3, SegmentBytes: 4096},
		{Workers: 8, SegmentBytes: 1 << 15},
		{}, // all defaults
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := buildRandomLog(rng, 120+rng.Intn(250))
		torn := seed%3 == 1
		if torn {
			if err := l.TearTail(1 + rng.Intn(64)); err != nil {
				t.Fatal(err)
			}
		}

		// Baseline pass from the log start to learn record boundaries.
		base := drainScan(l.NewScanner(FirstLSN(), nil, cost).Next)
		from := FirstLSN()
		if seed%3 == 2 && len(base.lsns) > 10 {
			from = base.lsns[rng.Intn(len(base.lsns))]
		}

		serialClock := &sim.Clock{}
		serialSC := l.NewScanner(from, serialClock, cost)
		serial := drainScan(serialSC.Next)
		if torn && !errors.Is(serial.err, ErrTruncated) {
			t.Fatalf("seed %d: torn log, serial err = %v, want ErrTruncated", seed, serial.err)
		}

		for ci, cfg := range cfgs {
			segClock := &sim.Clock{}
			seg := l.NewSegScanner(from, segClock, cost, cfg)
			got := drainScan(seg.Next)
			ctx := segCtx(seed, ci, torn)
			compareDumps(t, ctx, serial, got)
			if seg.PagesRead() != serialSC.PagesRead() {
				t.Fatalf("%s: pages read %d, serial %d", ctx, seg.PagesRead(), serialSC.PagesRead())
			}
			if segClock.Now() != serialClock.Now() {
				t.Fatalf("%s: clock %v, serial %v", ctx, segClock.Now(), serialClock.Now())
			}
			st := seg.Stats()
			if st.Records != int64(len(got.lsns)) {
				t.Fatalf("%s: stats records %d, emitted %d", ctx, st.Records, len(got.lsns))
			}
			seg.Close()
		}
	}
}

func segCtx(seed int64, cfg int, torn bool) string {
	s := fmt.Sprintf("seed %d cfg %d", seed, cfg)
	if torn {
		s += " torn"
	}
	return s
}

// TestSegScannerTruncationInLastSegmentOnly pins the torn-tail
// contract: with a tear past a healthy prefix, every segment before
// the one holding the tear decodes cleanly on the fast path — the
// truncation error is discovered by the final stretch of the log only,
// after all good records have been emitted.
func TestSegScannerTruncationInLastSegmentOnly(t *testing.T) {
	l := NewLog()
	for i := 0; i < 4000; i++ {
		l.MustAppend(&UpdateRec{TxnID: TxnID(i % 50), TableID: 1, KeyVal: uint64(i),
			OldVal: make([]byte, 40), NewVal: make([]byte, 40)})
	}
	l.Flush()
	serialCount := len(drainScan(l.NewScanner(FirstLSN(), nil, ScanCost{}).Next).lsns)
	if err := l.TearTail(37); err != nil {
		t.Fatal(err)
	}

	seg := l.NewSegScanner(FirstLSN(), nil, ScanCost{}, SegConfig{Workers: 4, SegmentBytes: 8 << 10})
	got := drainScan(seg.Next)
	if len(got.lsns) != serialCount {
		t.Fatalf("emitted %d records before the tear, want %d", len(got.lsns), serialCount)
	}
	if !errors.Is(got.err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", got.err)
	}
	st := seg.Stats()
	if st.Segments < 4 {
		t.Fatalf("only %d segments; test needs a multi-segment log", st.Segments)
	}
	// The healthy prefix is uniform and self-framing: every segment
	// before the tear must have been accepted as decoded, never
	// resynced — truncation is a last-segment affair.
	for i, ss := range st.Segment[:st.Segments-1] {
		if ss.Resynced {
			t.Fatalf("segment %d of the healthy prefix was resynced", i)
		}
	}
}

// TestSegScannerFastPathEngages checks the parallel path actually
// runs on a realistic log: multiple segments, zero resyncs, decoded
// by the workers rather than serially salvaged.
func TestSegScannerFastPathEngages(t *testing.T) {
	l := NewLog()
	for i := 0; i < 6000; i++ {
		// One field of a 64-byte row changes: a ~20-byte frame.
		old, nw := make([]byte, 64), make([]byte, 64)
		old[40], nw[40] = byte(i), byte(i+1)
		l.MustAppend(&UpdateRec{TxnID: TxnID(i % 100), TableID: 1, KeyVal: uint64(i), OldVal: old, NewVal: nw})
	}
	l.Flush()
	seg := l.NewSegScanner(FirstLSN(), nil, ScanCost{}, SegConfig{Workers: 4, SegmentBytes: 8 << 10})
	got := drainScan(seg.Next)
	if got.err != nil {
		t.Fatal(got.err)
	}
	st := seg.Stats()
	if st.Segments < 8 {
		t.Fatalf("segments = %d, want a real carve-up", st.Segments)
	}
	if st.Resyncs != 0 {
		t.Fatalf("resyncs = %d on a clean uniform log, want 0", st.Resyncs)
	}
	if st.Records != 6000 {
		t.Fatalf("records = %d, want 6000", st.Records)
	}
}

// TestSegScannerCloseEarly abandons a scan mid-stream; Close must
// release the decode workers without hanging even when the
// decode-ahead window is saturated.
func TestSegScannerCloseEarly(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3000; i++ {
		l.MustAppend(&UpdateRec{TxnID: 1, TableID: 1, KeyVal: uint64(i),
			OldVal: make([]byte, 32), NewVal: make([]byte, 32)})
	}
	l.Flush()
	seg := l.NewSegScanner(FirstLSN(), nil, ScanCost{}, SegConfig{Workers: 4, SegmentBytes: 4 << 10, MaxAhead: 2})
	for i := 0; i < 5; i++ {
		if _, _, ok, err := seg.Next(); !ok || err != nil {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	seg.Close()
	seg.Close() // idempotent
}
