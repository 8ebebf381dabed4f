package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// modelSegCap shrinks segments to a few hundred bytes, so a short random
// run seals, shares and releases dozens of them.
const modelSegCap = 256

// frameLen is the size of the frame rec appends (rec carries no
// back-pointer, so it is the same at every LSN).
func frameLen(rec Record) int { return len(encodeFrame(rec, FirstLSN())) }

// updateOfFrame returns an update whose frame is exactly n bytes: an
// empty before-middle and an after-middle sized to fit, so nothing is
// trimmed. (A varint length prefix makes a frame size unreachable here
// and there — a middle of 128 bytes, a body of 128; no caller asks for
// one.)
func updateOfFrame(t testing.TB, rng *rand.Rand, n int) *UpdateRec {
	for vals := n; vals >= 0; vals-- {
		r := &UpdateRec{TxnID: 1, KeyVal: 9, NewVal: make([]byte, vals)}
		if frameLen(r) == n {
			if rng != nil {
				rng.Read(r.NewVal)
			}
			return r
		}
	}
	t.Fatalf("no update record has a %d-byte frame", n)
	return nil
}

// model is the flat reference a segmented Log is checked against: every
// byte ever appended to its LSN space in one slice (ref[0] is the byte
// at FirstLSN), where each frame starts, and the boundaries the log
// must report.
type model struct {
	log    *Log
	ref    []byte
	starts []LSN
	stable LSN // expected FlushedLSN
	// maxStart is the highest StartLSN any Release so far was allowed to
	// reach (min of its bound, the stable end and the holds at the time).
	maxStart LSN
}

func newModel(l *Log) *model { return &model{log: l, stable: FirstLSN(), maxStart: FirstLSN()} }

func (m *model) end() LSN { return FirstLSN() + LSN(len(m.ref)) }

// fork models Snapshot/Clone: the stable prefix, nothing else.
func (m *model) fork(l *Log) *model {
	c := &model{log: l, stable: m.stable, maxStart: m.maxStart}
	c.ref = append([]byte(nil), m.ref[:m.stable-FirstLSN()]...)
	for _, s := range m.starts {
		if s < m.stable {
			c.starts = append(c.starts, s)
		}
	}
	return c
}

func (m *model) append(t *testing.T, rec Record) {
	t.Helper()
	lsn, err := m.log.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != m.end() {
		t.Fatalf("Append returned %v, reference log ends at %v", lsn, m.end())
	}
	m.starts = append(m.starts, lsn)
	m.ref = append(m.ref, encodeFrame(rec, lsn)...)
}

// frame returns the reference bytes of the frame starting at starts[i].
func (m *model) frame(i int) []byte {
	end := m.end()
	if i+1 < len(m.starts) {
		end = m.starts[i+1]
	}
	return m.ref[m.starts[i]-FirstLSN() : end-FirstLSN()]
}

// encodeFrame is the reference encoder of the record at LSN at: body
// first, then the header in front of it.
func encodeFrame(rec Record, at LSN) []byte {
	body, err := rec.encodeBody(nil, at)
	if err != nil {
		panic(err)
	}
	return append(binary.AppendUvarint([]byte{byte(rec.Type())}, uint64(len(body))), body...)
}

// back draws a back-pointer for the next record appended: none, or any
// LSN of the log so far (released or not, a frame's start or not — the
// codec only asks that it point back into the log).
func (m *model) back(rng *rand.Rand) LSN {
	if m.end() == FirstLSN() || rng.Intn(4) == 0 {
		return NilLSN
	}
	return FirstLSN() + LSN(rng.Int63n(int64(m.end()-FirstLSN())))
}

// check compares every read path of the log with the reference.
func (m *model) check(t *testing.T, ctx string) { m.checkPaths(t, ctx, true) }

// checkPaths is check with the parallel-width sweep (four scans, each
// starting workers) optional, so the model test can afford the inline
// paths after every single step.
func (m *model) checkPaths(t *testing.T, ctx string, parallel bool) {
	t.Helper()
	l := m.log
	start := l.StartLSN()
	if got := l.FlushedLSN(); got != m.stable {
		t.Fatalf("%s: FlushedLSN %v, reference %v", ctx, got, m.stable)
	}
	if got := l.EndLSN(); got != m.end() {
		t.Fatalf("%s: EndLSN %v, reference %v", ctx, got, m.end())
	}
	if start < FirstLSN() || start > m.maxStart {
		t.Fatalf("%s: StartLSN %v outside [%v, %v]: released past a bound or a hold", ctx, start, FirstLSN(), m.maxStart)
	}

	// Get: byte for byte at and above StartLSN, ErrReleased below.
	startIsFrame := start == m.end()
	var wantScan [][]byte
	var wantLSNs []LSN
	for i, lsn := range m.starts {
		rec, err := l.Get(lsn)
		if lsn < start {
			if !errors.Is(err, ErrReleased) {
				t.Fatalf("%s: Get(%v) below StartLSN %v = %v, want ErrReleased", ctx, lsn, start, err)
			}
			continue
		}
		startIsFrame = startIsFrame || lsn == start
		if err != nil {
			t.Fatalf("%s: Get(%v): %v", ctx, lsn, err)
		}
		if !bytes.Equal(encodeFrame(rec, lsn), m.frame(i)) {
			t.Fatalf("%s: Get(%v) differs from the reference frame", ctx, lsn)
		}
		if lsn < m.stable {
			wantLSNs = append(wantLSNs, lsn)
			wantScan = append(wantScan, m.frame(i))
		}
	}
	if !startIsFrame {
		t.Fatalf("%s: StartLSN %v is not a frame boundary", ctx, start)
	}
	if _, err := l.Get(m.end()); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("%s: Get(log end) = %v, want ErrOutOfRange", ctx, err)
	}

	// ReadStable: the whole retained stable range, a released LSN, and
	// a bounded read from the middle.
	got, err := l.ReadStable(start, 0)
	if err != nil {
		t.Fatalf("%s: ReadStable(%v): %v", ctx, start, err)
	}
	if want := m.ref[min(start, m.stable)-FirstLSN() : m.stable-FirstLSN()]; !bytes.Equal(got, want) {
		t.Fatalf("%s: ReadStable(%v) returned %d bytes differing from the reference's %d", ctx, start, len(got), len(want))
	}
	if start > FirstLSN() {
		if _, err := l.ReadStable(start-1, 0); !errors.Is(err, ErrReleased) {
			t.Fatalf("%s: ReadStable below StartLSN = %v, want ErrReleased", ctx, err)
		}
	}
	if mid := start + (m.stable-start)/2; mid < m.stable {
		got, err := l.ReadStable(mid, 300)
		want := m.ref[mid-FirstLSN() : min(mid+300, m.stable)-FirstLSN()]
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: ReadStable(%v, 300): %d bytes, err %v; want %d bytes", ctx, mid, len(got), err, len(want))
		}
	}

	// Scanner, inline and at every width, from the retained start and
	// (clamped) from FirstLSN.
	compare := func(what string, next func() (Record, LSN, bool, error)) {
		for i := 0; ; i++ {
			rec, lsn, ok, err := next()
			if err != nil {
				t.Fatalf("%s: %s: record %d: %v", ctx, what, i, err)
			}
			if !ok {
				if i != len(wantScan) {
					t.Fatalf("%s: %s yielded %d records, reference has %d", ctx, what, i, len(wantScan))
				}
				return
			}
			if i >= len(wantScan) || lsn != wantLSNs[i] || !bytes.Equal(encodeFrame(rec, lsn), wantScan[i]) {
				t.Fatalf("%s: %s: record %d at %v differs from the reference", ctx, what, i, lsn)
			}
		}
	}
	compare("Scanner", l.newScanner(start, nil, ScanCost{}, 0).Next)
	compare("Scanner(FirstLSN)", l.newScanner(FirstLSN(), nil, ScanCost{}, 0).Next)
	if !parallel {
		return
	}
	for _, width := range []int{1, 2, 4} {
		sc := l.newScanner(FirstLSN(), nil, ScanCost{}, width)
		compare(fmt.Sprintf("Scanner(width %d)", width), sc.Next)
		sc.Close()
	}
	sc := l.NewScanner(FirstLSN(), nil, ScanCost{})
	compare("NewScanner", sc.Next)
	sc.Close()
}

// randomRec draws an update whose frame is usually much smaller than a
// segment and sometimes exactly a segment, one byte more, or several.
func (m *model) randomRec(t testing.TB, rng *rand.Rand, id int) Record {
	switch rng.Intn(12) {
	case 0:
		return updateOfFrame(t, rng, modelSegCap) // exactly fills an empty segment
	case 1:
		return updateOfFrame(t, rng, modelSegCap+1) // one byte too many
	case 2:
		return updateOfFrame(t, rng, 2*modelSegCap+rng.Intn(modelSegCap)) // larger than any segment
	case 3:
		return &CommitRec{TxnID: TxnID(id)}
	}
	vals := rng.Intn(90)
	old := make([]byte, rng.Intn(vals+1))
	rng.Read(old)
	nw := make([]byte, vals-len(old))
	rng.Read(nw)
	return &UpdateRec{TxnID: TxnID(id), KeyVal: rng.Uint64(), OldVal: old, NewVal: nw, PrevLSN: m.back(rng)}
}

// TestSegmentedLogMatchesFlatModel drives random Append / Flush /
// Snapshot / Clone / TearTail+CloneTrimmed / AppendStable / Release /
// hold traffic against a family of logs with tiny segments and, after
// every step that changes one, compares all of its read paths with a
// flat []byte reference. Forks are kept and re-checked after their
// parent and siblings moved on: sealed segments are shared, so a fork
// must never see what was appended elsewhere.
func TestSegmentedLogMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := newModel(newLog(modelSegCap))
		standby := newModel(newLog(modelSegCap))
		shipper := live.log.NewShipReader(FirstLSN())
		var holds []*hold
		var forks []*model
		ctx := func(op string, step int) string { return fmt.Sprintf("seed %d step %d %s", seed, step, op) }

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				live.append(t, live.randomRec(t, rng, step))
			case op < 12:
				live.stable = live.end()
				if got := live.log.Flush(); got != live.stable {
					t.Fatalf("%s: Flush returned %v, want %v", ctx("flush", step), got, live.stable)
				}
			case op == 12:
				forks = append(forks, live.fork(live.log.Snapshot()))
			case op == 13:
				// A writable clone, appended to at once: neither the
				// snapshot taken beside it nor the live log may notice.
				snap := live.fork(live.log.Snapshot())
				c := live.fork(live.log.Clone())
				for i := 0; i < 1+rng.Intn(6); i++ {
					c.append(t, c.randomRec(t, rng, step))
				}
				c.stable = c.end()
				c.log.Flush()
				c.checkPaths(t, ctx("clone", step), false)
				snap.checkPaths(t, ctx("snapshot beside clone", step), false)
				forks = append(forks, c, snap)
			case op == 14:
				// A torn snapshot reads as its stable bytes plus the
				// tear; the trimmed clone is the stable bytes again.
				snap := live.log.Snapshot()
				if err := snap.TearTail(1 + rng.Intn(40)); err != nil {
					t.Fatal(err)
				}
				if got := drainScan(snap.NewScanner(FirstLSN(), nil, ScanCost{}).Next); !errors.Is(got.err, ErrTruncated) {
					t.Fatalf("%s: scan of a torn snapshot ended with %v, want ErrTruncated", ctx("tear", step), got.err)
				}
				live.fork(snap.CloneTrimmed()).checkPaths(t, ctx("trimmed clone", step), false)
			case op == 15:
				// Ship some of the live log's stable bytes to the standby
				// in odd-sized pieces, then let the shipper's hold follow.
				for i := 0; i < 1+rng.Intn(4); i++ {
					seg, ok, err := shipper.Next(1 + rng.Intn(2*modelSegCap))
					if err != nil {
						t.Fatalf("%s: %v", ctx("ship", step), err)
					}
					if !ok {
						break
					}
					if _, err := standby.log.AppendStable(seg.From, seg.Data); err != nil {
						t.Fatalf("%s: %v", ctx("ship", step), err)
					}
				}
				standby.stable = standby.log.FlushedLSN()
				standby.ref = live.ref[:standby.stable-FirstLSN()]
				standby.starts = standby.starts[:0]
				for _, s := range live.starts {
					if s < standby.stable {
						standby.starts = append(standby.starts, s)
					}
				}
				standby.checkPaths(t, ctx("standby", step), step%4 == 0)
				shipper.Ack(standby.stable)
			case op == 16:
				switch {
				case len(holds) < 2:
					holds = append(holds, live.log.addHold(live.log.StartLSN()+LSN(rng.Intn(3*modelSegCap))))
				case rng.Intn(2) == 0:
					live.log.moveHold(holds[0], holds[0].at+LSN(rng.Intn(4*modelSegCap)))
				default:
					live.log.dropHold(holds[0])
					holds = holds[1:]
				}
			default:
				// Release below a random bound: the model only knows how
				// far the log may go, check() asserts it went no further.
				before := live.log.StartLSN() + LSN(rng.Intn(6*modelSegCap))
				limit := min(before, live.stable, shipper.hold.at)
				for _, h := range holds {
					limit = min(limit, h.at)
				}
				live.maxStart = max(live.maxStart, limit)
				if _, err := live.log.Release(before); err != nil {
					t.Fatal(err)
				}
				// The standby releases what it has ingested, too.
				standby.maxStart = max(standby.maxStart, min(before, standby.stable))
				if _, err := standby.log.Release(before); err != nil {
					t.Fatal(err)
				}
				standby.checkPaths(t, ctx("standby release", step), false)
			}
			live.checkPaths(t, ctx("live", step), step%40 == 0)
			if step%50 == 0 {
				for i, f := range forks {
					f.checkPaths(t, ctx(fmt.Sprintf("fork %d revisited", i), step), false)
				}
			}
		}
		for i, f := range forks {
			f.checkPaths(t, ctx(fmt.Sprintf("fork %d at the end", i), 400), i%8 == 0)
		}
		if live.log.StartLSN() == FirstLSN() || live.log.Segments() < 2 {
			t.Fatalf("seed %d: the run never released or never rolled (start %v, %d segments)", seed, live.log.StartLSN(), live.log.Segments())
		}
	}
}

// TestSegmentBoundaryFrames pins the three boundary cases one by one: a
// frame that exactly fills a segment, one a byte too long for what is
// left, and one larger than any segment.
func TestSegmentBoundaryFrames(t *testing.T) {
	rec := func(frame int) *UpdateRec { return updateOfFrame(t, nil, frame) }
	smallest := frameLen(&UpdateRec{TxnID: 1, KeyVal: 9})
	m := newModel(newLog(modelSegCap))

	m.append(t, rec(modelSegCap)) // exactly one segment's worth
	if got := m.log.Segments(); got != 1 {
		t.Fatalf("a frame of exactly the segment capacity took %d segments", got)
	}
	m.append(t, rec(smallest)) // the tail is full: this one opens segment 2
	if got := m.log.Segments(); got != 2 {
		t.Fatalf("a frame after a full segment: %d segments, want 2", got)
	}
	m.append(t, rec(modelSegCap-smallest+1)) // one byte more than segment 2 has left
	if got := m.log.Segments(); got != 3 {
		t.Fatalf("a frame one byte over: %d segments, want 3", got)
	}
	m.append(t, rec(3*modelSegCap)) // oversized: a segment of its own
	m.append(t, rec(smallest))
	if got := m.log.Segments(); got != 5 {
		t.Fatalf("an oversized frame and its successor: %d segments, want 5", got)
	}
	// No frame straddles: every segment's bytes walk to exactly its end.
	for _, s := range m.log.segs {
		for at := s.base; at < s.end(); {
			_, next, err := decodeFrame(s.data, s.base, at)
			if err != nil {
				t.Fatalf("segment at %v: %v", s.base, err)
			}
			at = next
		}
	}
	m.stable = m.end()
	m.log.Flush()
	m.check(t, "boundary frames")

	// Released one segment at a time, each bound lands on a boundary.
	for _, s := range append([]*segment(nil), m.log.segs[1:]...) {
		m.maxStart = s.base
		if start, err := m.log.Release(s.base); err != nil || start != s.base {
			t.Fatalf("Release(%v) = %v, %v", s.base, start, err)
		}
		m.check(t, fmt.Sprintf("released below %v", s.base))
	}
}

// TestAppendDoesNotAllocate pins the append path at zero heap
// allocations per record: the frame is encoded in the tail segment's
// spare capacity — an update behind the two header bytes reserved for
// it, a 200-page ∆ record moved up a byte once its length is known.
func TestAppendDoesNotAllocate(t *testing.T) {
	l := NewLog()
	update, delta := benchUpdateRec(1), benchDeltaRec(200, 30)
	if got := frameLen(delta); FrameHeaderSize(got) != 3 {
		t.Fatalf("the ∆ record's %d-byte frame has a %d-byte header; the test wants the shifted path", got, FrameHeaderSize(got))
	}
	for name, rec := range map[string]Record{"UpdateRec": update, "DeltaRec": delta} {
		if n := testing.AllocsPerRun(2000, func() {
			update.KeyVal++
			lsn, err := l.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			update.PrevLSN = lsn
		}); n != 0 {
			t.Fatalf("Append of a %s allocates %v times per record, want 0", name, n)
		}
	}
}

// TestConcurrentAppendFlushReleaseScan runs appenders, a flusher that
// releases behind itself, and a scanner over one log with tiny
// segments (the -race half of the model test), then checks every
// retained record against what its appender wrote.
func TestConcurrentAppendFlushReleaseScan(t *testing.T) {
	const appenders, perAppender = 4, 600
	l := newLog(modelSegCap)
	wrote := make([]map[LSN]uint64, appenders)
	done := make(chan struct{})
	var wg, bg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wrote[a] = make(map[LSN]uint64, perAppender)
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				key := uint64(a)<<32 | uint64(i)
				wrote[a][l.MustAppend(&UpdateRec{TxnID: TxnID(a + 1), KeyVal: key, NewVal: make([]byte, i%70)})] = key
			}
		}(a)
	}
	bg.Add(2)
	go func() { // flush, then release everything but the last few hundred bytes
		defer bg.Done()
		for last := false; !last; {
			select {
			case <-done:
				last = true // one more pass, over everything the appenders wrote
			default:
			}
			if stable := l.Flush(); stable > FirstLSN()+600 {
				if _, err := l.Release(stable - 600); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	go func() { // scans race the releases: a scan keeps the view it took
		defer bg.Done()
		for {
			sc := l.NewScanner(l.StartLSN(), nil, ScanCost{})
			for {
				_, _, ok, err := sc.Next()
				if err != nil {
					t.Errorf("scan racing release: %v", err)
				}
				if err != nil || !ok {
					break
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	bg.Wait()

	l.Flush()
	start := l.StartLSN()
	if start == FirstLSN() {
		t.Fatal("nothing was released")
	}
	for a := range wrote {
		for lsn, key := range wrote[a] {
			rec, err := l.Get(lsn)
			if lsn < start {
				if !errors.Is(err, ErrReleased) {
					t.Fatalf("Get(%v) below StartLSN %v = %v, want ErrReleased", lsn, start, err)
				}
				continue
			}
			if u, ok := rec.(*UpdateRec); err != nil || !ok || u.KeyVal != key {
				t.Fatalf("Get(%v) = %+v, %v; want the update of key %d", lsn, rec, err, key)
			}
		}
	}
}
