package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"logrec/internal/sim"
	"logrec/internal/storage"
)

// scanSegCap shrinks segments so a few hundred random records span
// dozens of them, oversized frames in segments of their own included.
const scanSegCap = 256

func randVal(rng *rand.Rand) []byte {
	n := rng.Intn(200)
	if rng.Intn(10) == 0 {
		// Occasionally larger than a test segment.
		n = 2048 + rng.Intn(8192)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func buildRandomLog(rng *rand.Rand, n int) *Log {
	l := newLog(scanSegCap)
	// back draws a pointer into the log so far, nil when there is none.
	back := func() LSN {
		if l.EndLSN() == FirstLSN() {
			return NilLSN
		}
		return FirstLSN() + LSN(rng.Int63n(int64(l.EndLSN()-FirstLSN())))
	}
	// txn draws a transaction name: the LSN of a record below, or none.
	txn := func() TxnID { return TxnID(back()) }
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			l.MustAppend(&CommitRec{TxnID: txn()})
		case 1:
			l.MustAppend(&InsertRec{TxnID: txn(), KeyVal: rng.Uint64(),
				Val: randVal(rng), PageID: storage.PageID(rng.Uint32()), PrevLSN: back()})
		case 2:
			l.MustAppend(&DeleteRec{TxnID: txn(), KeyVal: rng.Uint64(),
				OldVal: randVal(rng), PageID: storage.PageID(rng.Uint32()), PrevLSN: back()})
		case 3:
			l.MustAppend(&UpdateRec{TxnID: txn(), KeyVal: rng.Uint64(),
				OldVal: randVal(rng), NewVal: randVal(rng),
				PageID: storage.PageID(rng.Uint32()), PrevLSN: back()})
		case 4:
			l.MustAppend(&SMORec{
				Meta:   TreeMeta{Root: 5, Height: 2, NextPID: 9},
				Images: []PageImage{{PageID: storage.PageID(rng.Uint32()), Data: randVal(rng)}},
			})
		case 5:
			l.MustAppend(&EndCkptRec{BeginLSN: LSN(rng.Uint32()),
				Active: []ActiveTxn{{TxnID: txn(), LastLSN: LSN(rng.Uint32())}}})
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
		d.bodies = append(d.bodies, encodeFrame(rec, lsn))
	}
}

func compareDumps(t *testing.T, ctx string, want, got scanDump) {
	t.Helper()
	if !reflect.DeepEqual(want.lsns, got.lsns) {
		t.Fatalf("%s: LSN sequence diverged: inline %d records, parallel %d", ctx, len(want.lsns), len(got.lsns))
	}
	if !reflect.DeepEqual(want.types, got.types) {
		t.Fatalf("%s: record type sequence diverged", ctx)
	}
	if !reflect.DeepEqual(want.bodies, got.bodies) {
		t.Fatalf("%s: record bodies diverged", ctx)
	}
	switch {
	case want.err == nil && got.err != nil:
		t.Fatalf("%s: parallel errored where inline did not: %v", ctx, got.err)
	case want.err != nil && got.err == nil:
		t.Fatalf("%s: inline errored where parallel did not: %v", ctx, want.err)
	case want.err != nil && want.err.Error() != got.err.Error():
		t.Fatalf("%s: errors diverge:\ninline:   %v\nparallel: %v", ctx, want.err, got.err)
	}
}

// scanWidths are the decode widths every comparison sweeps against
// the inline scan (width 0); -1 is NewScanner's own.
var scanWidths = []int{1, 2, 3, 8, -1}

// compareWidths scans l from `from` inline, at every width and at
// NewScanner's own, and requires the same records at the same LSNs, the
// same pages read and virtual time charged, and the same error at the
// same position. It returns the inline scan.
func compareWidths(t *testing.T, ctx string, l *Log, from LSN) scanDump {
	t.Helper()
	cost := ScanCost{PageSize: 4096, PerPage: 250 * sim.Microsecond}
	inlineClock := &sim.Clock{}
	inlineSC := l.newScanner(from, inlineClock, cost, 0)
	inline := drainScan(inlineSC.Next)
	for _, width := range scanWidths {
		ctx := fmt.Sprintf("%s width %d", ctx, width)
		clock := &sim.Clock{}
		sc := l.NewScanner(from, clock, cost)
		if width >= 0 {
			sc = l.newScanner(from, clock, cost, width)
		}
		got := drainScan(sc.Next)
		compareDumps(t, ctx, inline, got)
		if sc.PagesRead() != inlineSC.PagesRead() {
			t.Fatalf("%s: pages read %d, inline %d", ctx, sc.PagesRead(), inlineSC.PagesRead())
		}
		if clock.Now() != inlineClock.Now() {
			t.Fatalf("%s: clock %v, inline %v", ctx, clock.Now(), inlineClock.Now())
		}
		if st := sc.Stats(); st.Records != int64(len(got.lsns)) {
			t.Fatalf("%s: stats records %d, emitted %d", ctx, st.Records, len(got.lsns))
		}
		sc.Close()
	}
	return inline
}

// TestSegScannerMatchesSerialProperty is the decoder oracle: for
// fuzzed logs of many small segments — oversized frames, torn tails,
// mid-log scan starts — the stitched stream must be byte-identical to
// the inline scan at every width, with identical page accounting,
// virtual-time charge, and error position.
func TestSegScannerMatchesSerialProperty(t *testing.T) {
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
		base := drainScan(l.NewScanner(FirstLSN(), nil, ScanCost{}).Next)
		from := FirstLSN()
		if seed%3 == 2 && len(base.lsns) > 10 {
			from = base.lsns[rng.Intn(len(base.lsns))]
		}

		inline := compareWidths(t, fmt.Sprintf("seed %d", seed), l, from)
		if torn && !errors.Is(inline.err, ErrTruncated) {
			t.Fatalf("seed %d: torn log, inline err = %v, want ErrTruncated", seed, inline.err)
		}
	}
}

// TestScannerCorruptSealedSegment flips one byte in a sealed segment
// in the middle of a log the test owns: every width must emit the
// records before the damage and then fail where, and as, the inline
// scan does — workers decoding the segments behind it change nothing.
func TestScannerCorruptSealedSegment(t *testing.T) {
	for _, flip := range []struct {
		name string
		off  int // byte of the frame header to flip
	}{{"length", 0}, {"type", 4}} {
		l := buildRandomLog(rand.New(rand.NewSource(7)), 300)
		if len(l.segs) < 8 {
			t.Fatalf("log has %d segments; the test needs a sealed one mid-log", len(l.segs))
		}
		clean := drainScan(l.NewScanner(FirstLSN(), nil, ScanCost{}).Next)
		hit := l.segs[len(l.segs)/2]
		hit.data[flip.off] ^= 0xFF

		inline := compareWidths(t, flip.name, l, FirstLSN())
		if inline.err == nil {
			t.Fatalf("%s: flipped byte at %v went undetected", flip.name, hit.base)
		}
		var before int
		for before < len(clean.lsns) && clean.lsns[before] < hit.base {
			before++
		}
		if len(inline.lsns) != before {
			t.Fatalf("%s: %d records emitted before the error, %d lie below the damage at %v",
				flip.name, len(inline.lsns), before, hit.base)
		}
	}
}

// smallUpdates appends one-field updates of a 64-byte row (frames of
// some 20 bytes) until stop says so, and flushes.
func smallUpdates(l *Log, stop func(appended int) bool) int {
	n := 0
	for ; !stop(n); n++ {
		old, nw := make([]byte, 64), make([]byte, 64)
		old[40], nw[40] = byte(n), byte(n+1)
		l.MustAppend(&UpdateRec{TxnID: TxnID(n % 100), KeyVal: uint64(n), OldVal: old, NewVal: nw})
	}
	l.Flush()
	return n
}

// TestSegScannerTruncationInLastSegmentOnly pins the torn-tail
// contract: with a tear past a healthy prefix, every segment before
// the one holding the tear decodes cleanly — the truncation error
// surfaces only after all good records have been emitted.
func TestSegScannerTruncationInLastSegmentOnly(t *testing.T) {
	l := newLog(8 << 10)
	good := smallUpdates(l, func(n int) bool { return n == 4000 })
	if err := l.TearTail(37); err != nil {
		t.Fatal(err)
	}

	sc := l.newScanner(FirstLSN(), nil, ScanCost{}, 4)
	got := drainScan(sc.Next)
	if len(got.lsns) != good {
		t.Fatalf("emitted %d records before the tear, want %d", len(got.lsns), good)
	}
	if !errors.Is(got.err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", got.err)
	}
	if st := sc.Stats(); st.Segments < 4 {
		t.Fatalf("only %d segments; test needs a multi-segment log", st.Segments)
	}
}

// TestSegScannerFastPathEngages checks which path a scan takes: a view
// of one segment starts no worker whatever width was asked, a view of
// four segments at width 2 decodes on two, and NewScanner (width -1
// below) decodes one segment inline and four on one worker per core.
func TestSegScannerFastPathEngages(t *testing.T) {
	for _, c := range []struct {
		segments, width, workers int
	}{{1, 4, 0}, {4, 2, 2}, {1, -1, 0}, {4, -1, min(runtime.GOMAXPROCS(0), maxScanWorkers)}} {
		l := newLog(8 << 10)
		recs := smallUpdates(l, func(n int) bool { return n >= 100 && l.Segments() == c.segments })
		sc := l.NewScanner(FirstLSN(), nil, ScanCost{})
		if c.width >= 0 {
			sc = l.newScanner(FirstLSN(), nil, ScanCost{}, c.width)
		}
		got := drainScan(sc.Next)
		if got.err != nil {
			t.Fatal(got.err)
		}
		st := sc.Stats()
		if st.Segments != c.segments || st.Workers != c.workers || st.Records != int64(recs) {
			t.Fatalf("width %d: %d segments on %d workers, %d records; want %d on %d, %d",
				c.width, st.Segments, st.Workers, st.Records, c.segments, c.workers, recs)
		}
	}
}

// TestSegScannerCloseEarly abandons a scan mid-stream; Close must
// release the decode workers without hanging even when the
// decode-ahead window is saturated.
func TestSegScannerCloseEarly(t *testing.T) {
	l := newLog(1 << 10)
	smallUpdates(l, func(n int) bool { return n == 3000 })
	sc := l.newScanner(FirstLSN(), nil, ScanCost{}, 1)
	for i := 0; i < 5; i++ {
		if _, _, ok, err := sc.Next(); !ok || err != nil {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	sc.Close()
	sc.Close() // idempotent
}

// TestScannerFirstRecordWaitsForOneBatch: on a view of several
// segments the first Next waits for the first batch, not the first
// segment. The workers keep filling their bounded queues meanwhile, so
// when it returns at most width × (scanDepth + 1) + 1 batches are
// decoded — each worker's queue and the batch it fills, and the one
// Next holds: a part of the one segment a whole-segment decoder would
// have finished first.
func TestScannerFirstRecordWaitsForOneBatch(t *testing.T) {
	l := NewLog()
	smallUpdates(l, func(int) bool { return l.Segments() == 4 })
	all := drainScan(l.newScanner(FirstLSN(), nil, ScanCost{}, 0).Next)
	firstSeg := sort.Search(len(all.lsns), func(i int) bool { return all.lsns[i] >= l.segs[1].base })
	for _, width := range []int{1, 2} {
		sc := l.newScanner(FirstLSN(), nil, ScanCost{}, width)
		if _, _, ok, err := sc.Next(); !ok || err != nil {
			t.Fatalf("width %d: first Next: ok=%v err=%v", width, ok, err)
		}
		bound := int64((width*(scanDepth+1) + 1) * scanBatch)
		if got := sc.decoded.Load(); got > bound {
			t.Fatalf("width %d: %d frames decoded by the first record, bound %d", width, got, bound)
		}
		if int64(firstSeg) <= bound {
			t.Fatalf("the first segment holds %d frames; the test needs more than %d", firstSeg, bound)
		}
		sc.Close()
	}
}

// TestScannerWorkersAllocateLikeInline: batches are recycled, so a full
// scan of an 8-segment log on two workers allocates what the inline
// scan does — the records — plus under 1 MiB of batches, channels and
// goroutines, not an item array per segment.
func TestScannerWorkersAllocateLikeInline(t *testing.T) {
	l := NewLog()
	for i := 0; l.Segments() < 8 || l.EndLSN() < l.segs[7].base+LSN(len(l.segs[0].data)/2); i++ {
		l.MustAppend(benchUpdateRec(i))
	}
	l.Flush()
	allocated := func(width int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := drainScan(l.newScanner(FirstLSN(), nil, ScanCost{}, width).Next)
		runtime.ReadMemStats(&after)
		if got.err != nil {
			t.Fatal(got.err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// drainScan keeps every record's bytes: measure both scans the same way.
	inline, workers := allocated(0), allocated(2)
	if workers > inline+1<<20 {
		t.Fatalf("width 2 allocated %d bytes, inline %d: %d more", workers, inline, workers-inline)
	}
}

// TestScannerCloseEndsWorkers abandons scans over segments too long
// for a worker's queue, so every worker waits on a full one; Close must
// end them all.
func TestScannerCloseEndsWorkers(t *testing.T) {
	l := NewLog()
	smallUpdates(l, func(int) bool { return l.Segments() == 4 })
	before := runtime.NumGoroutine()
	for _, width := range []int{1, 4, 8} {
		sc := l.newScanner(FirstLSN(), nil, ScanCost{}, width)
		if _, _, ok, err := sc.Next(); !ok || err != nil {
			t.Fatalf("width %d: first Next: ok=%v err=%v", width, ok, err)
		}
		sc.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Close, %d before the scans", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
