package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// recordNear returns a record whose frame is at most n bytes and as
// close to n as an update gets: an empty begin-checkpoint (two bytes)
// below the smallest update.
func recordNear(rng *rand.Rand, n int) Record {
	for vals := n; vals >= 0; vals-- {
		r := &UpdateRec{TxnID: 1, KeyVal: 9, NewVal: make([]byte, vals)}
		if frameLen(r) <= n {
			rng.Read(r.NewVal)
			return r
		}
	}
	return &BeginCkptRec{}
}

// fixedSeals is the fixed-capacity rule: the base of every segment a
// stream of frames of these lengths fills, each sealed when the next
// frame would take it past segCap (a larger frame alone in its own).
func fixedSeals(segCap int, frames []int) []LSN {
	bases := []LSN{FirstLSN()}
	end, used := FirstLSN(), 0
	for _, n := range frames {
		if used > 0 && used+n > segCap {
			bases = append(bases, end)
			used = 0
		}
		used += n
		end += LSN(n)
	}
	return bases
}

// tailLog is a log under test and the lengths of the frames it holds.
type tailLog struct {
	l      *Log
	frames []int
}

// append adds n records of 1 B to 6 KiB frames and checks the tail's
// backing array after each: never more than twice what it holds (or
// tailStartBytes) while short of the segment capacity.
func (tl *tailLog) append(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn := tl.l.MustAppend(recordNear(rng, 1+rng.Intn(6<<10)))
		tl.frames = append(tl.frames, int(tl.l.EndLSN()-lsn))
		tl.checkCap(t)
	}
}

func (tl *tailLog) checkCap(t *testing.T) {
	t.Helper()
	tail := tl.l.tail().data
	if len(tail) < tl.l.segCap && cap(tail) > max(2*len(tail), tailStartBytes) {
		t.Fatalf("tail holds %d B in a %d B array", len(tail), cap(tail))
	}
}

// checkSeals compares the log's segment bases with the fixed rule's.
func (tl *tailLog) checkSeals(t *testing.T, ctx string) {
	t.Helper()
	var got []LSN
	for _, s := range tl.l.segs {
		got = append(got, s.base)
	}
	want := fixedSeals(tl.l.segCap, tl.frames)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s: segment %d of %d starts at %v, segment %d of the fixed-capacity rule's %d at %v",
			ctx, i, len(got), at(got, i), i, len(want), at(want, i))
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []LSN) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// at returns s[i], or NilLSN past its end.
func at(s []LSN, i int) LSN {
	if i < len(s) {
		return s[i]
	}
	return NilLSN
}

// stableFrames returns how many of tl's frames lie below its log's
// stable end.
func (tl *tailLog) stableFrames() int {
	end, n := FirstLSN(), 0
	for n < len(tl.frames) && end < tl.l.FlushedLSN() {
		end += LSN(tl.frames[n])
		n++
	}
	return n
}

// TestTailSealsWhereFixedSegmentsWould: a tail that grows into its
// segment seals exactly where a segment of fixed capacity would — for
// a seeded stream of frames up to 6 KiB, on segments smaller than some
// frames and on segments the tail grows into several times — and so do
// a snapshot's and a clone's, taken at random stable ends and appended
// to.
func TestTailSealsWhereFixedSegmentsWould(t *testing.T) {
	for _, segCap := range []int{4096, 64 << 10} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			live := &tailLog{l: newLog(segCap)}
			for round := 0; round < 8; round++ {
				live.append(t, rng, rng.Intn(60))
				live.checkSeals(t, "live log")
				if rng.Intn(2) == 0 {
					live.l.Flush()
				}
				k := live.stableFrames()
				snap := &tailLog{l: live.l.Snapshot(), frames: live.frames[:k:k]}
				snap.checkCap(t)
				snap.checkSeals(t, "snapshot")
				for _, from := range []*Log{live.l, snap.l} {
					c := &tailLog{l: from.Clone(), frames: live.frames[:k:k]}
					c.checkCap(t)
					c.append(t, rng, rng.Intn(40))
					c.checkSeals(t, "clone")
				}
			}
			if live.l.Segments() < 4 {
				t.Fatalf("segCap %d, seed %d: the stream sealed only %d segments", segCap, seed, live.l.Segments())
			}
		}
	}
}

// exactRecord returns an update whose frame is exactly n bytes, or nil
// if no update's is (see updateOfFrame).
func exactRecord(n int) Record {
	for vals := max(n-64, 0); vals <= n; vals++ {
		r := &UpdateRec{TxnID: 1, KeyVal: 9, NewVal: make([]byte, vals)}
		if frameLen(r) == n {
			return r
		}
	}
	return nil
}

// TestTailFilledToCapacitySealsOnTheNextFrame: a frame that brings the
// tail to exactly the segment capacity still goes in it — whether it
// fits the tail's array or makes it grow — and the next frame, however
// small, opens a new segment.
func TestTailFilledToCapacitySealsOnTheNextFrame(t *testing.T) {
	for _, segCap := range []int{4096, 64 << 10} {
		l := newLog(segCap)
		first := l.MustAppend(exactRecord(100))
		fill := exactRecord(segCap - 100)
		if fill == nil {
			t.Fatalf("no update has a %d-byte frame", segCap-100)
		}
		l.MustAppend(fill)
		if l.Segments() != 1 || l.EndLSN()-first != LSN(segCap) {
			t.Fatalf("segCap %d: filling the segment exactly left %d segments, %d B", segCap, l.Segments(), l.EndLSN()-first)
		}
		if lsn := l.MustAppend(&BeginCkptRec{}); l.Segments() != 2 || l.tail().base != lsn {
			t.Fatalf("segCap %d: a frame past the full segment did not open the next one", segCap)
		}
	}
}

// TestTailGrowthKeepsReadersViews: a record Get decoded and a chunk a
// reader took before the tail grows read the same bytes after it, and
// the growth left the old array as it was.
func TestTailGrowthKeepsReadersViews(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newLog(64 << 10)
	last := l.MustAppend(recordNear(rng, 100))
	for {
		rec := recordNear(rng, 40+rng.Intn(200))
		if tail := l.tail(); len(tail.data)+frameLen(rec) > cap(tail.data) {
			break
		}
		last = l.MustAppend(rec)
	}
	before, err := l.Get(last)
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	view := l.chunks(FirstLSN(), l.tail().end())
	l.mu.Unlock()
	saved := bytes.Clone(view[0].data)
	array := &l.tail().data[:1][0]

	l.MustAppend(recordNear(rng, 1<<10))
	if len(l.segs) != 1 || &l.tail().data[:1][0] == array {
		t.Fatalf("the append did not grow the tail into a new array of its segment (%d segments)", len(l.segs))
	}
	for i := 0; i < 200; i++ {
		l.MustAppend(recordNear(rng, 1+rng.Intn(200)))
	}
	if !bytes.Equal(view[0].data, saved) {
		t.Fatal("a chunk taken before the growth reads different bytes after it")
	}
	after, err := l.Get(last)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("Get(%v) before the growth = %+v, after = %+v", last, before, after)
	}
	if got := encodeFrame(before, last); !bytes.Equal(got, saved[last-FirstLSN():]) {
		t.Fatal("the record Get decoded before the growth changed with it")
	}
}

// TestFlushRacesTailGrowth: a backend flush writes the tail's bytes
// with the log's lock released while appends grow the tail under it
// (run it under -race); the files then hold exactly the log's bytes.
func TestFlushRacesTailGrowth(t *testing.T) {
	l, _, path := fileLogSized(t, 64<<10)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				l.Flush()
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		l.MustAppend(recordNear(rng, 1+rng.Intn(1<<10)))
	}
	close(done)
	wg.Wait()
	l.Flush()
	if l.Segments() < 3 {
		t.Fatalf("the run sealed %d segments, want several growths and seals", l.Segments())
	}
	want := stableBytes(t, l)
	if err := l.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLogDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseBackend()
	if got := stableBytes(t, re); !bytes.Equal(got, want) {
		t.Fatalf("the reopened log holds %d B that differ from the %d B flushed", len(got), len(want))
	}
}

// TestReopenedSealedSegmentStaysSealed: when the torn last file of a
// log directory is removed on reopen, the sealed segment before it
// becomes the tail but is not extended, even by a frame that would fit
// its capacity: its file may be shared with other directories, so the
// next append opens a new segment and the file keeps its bytes.
func TestReopenedSealedSegmentStaysSealed(t *testing.T) {
	l, _, dir := fileLogSized(t, 4096)
	rng := rand.New(rand.NewSource(1))
	for l.Segments() < 3 {
		l.MustAppend(recordNear(rng, 3000))
	}
	l.Flush()
	if err := l.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	bases, err := listSegFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A crash while creating the last file leaves it shorter than its
	// header: the reopen removes it.
	if err := os.Truncate(filepath.Join(dir, segFileName(bases[len(bases)-1])), 3); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segFileName(bases[len(bases)-2]))
	before, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseBackend()
	n := re.Segments()
	if len(before)-segHeaderSize+2 > 4096 {
		t.Fatalf("the sealed segment holds %d B: no room left to test", len(before)-segHeaderSize)
	}
	re.MustAppend(&BeginCkptRec{})
	re.Flush()
	if re.Segments() != n+1 {
		t.Fatalf("an append to a reopened sealed segment left %d segments, want %d", re.Segments(), n+1)
	}
	if after, err := os.ReadFile(sealed); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the sealed segment's file changed (%v)", err)
	}
}
