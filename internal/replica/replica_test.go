package replica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
	"logrec/internal/workload"
)

// managers holds the one session manager of each engine a test drives.
var managers struct {
	sync.Mutex
	of map[*engine.Engine]*tc.SessionManager
}

// begin opens a transaction on a new session of eng, opening eng's
// session manager on first use.
func begin(t testing.TB, eng *engine.Engine) *tc.Session {
	t.Helper()
	managers.Lock()
	mgr, ok := managers.of[eng]
	if !ok {
		if managers.of == nil {
			managers.of = map[*engine.Engine]*tc.SessionManager{}
		}
		mgr = eng.NewSessionManager(0)
		managers.of[eng] = mgr
	}
	managers.Unlock()
	s := mgr.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	return s
}

// NOTE: this package is imported by internal/harness, so these tests
// build their own traffic and digest helpers instead of importing it.

const testRows = 1500

func initVal(k uint64) []byte { return []byte(fmt.Sprintf("init-%06d", k)) }

// newPrimary builds and loads a simulated primary.
func newPrimary(t testing.TB, shards int) *engine.Engine {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Shards = shards
	cfg.KeySpan = 2 * testRows
	cfg.CachePages = 256 * shards
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(testRows, initVal); err != nil {
		t.Fatal(err)
	}
	return eng
}

// newStandby builds and loads a simulated standby mirroring cfg's
// geometry unless mutate changes it.
func newStandby(t testing.TB, primary *engine.Engine, mutate func(*engine.Config)) *engine.Engine {
	t.Helper()
	cfg := primary.Cfg
	cfg.Standby = true
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(testRows, initVal); err != nil {
		t.Fatal(err)
	}
	return eng
}

// attach wires a Standby over the pair.
func attach(t *testing.T, primary, standby *engine.Engine, cfg Config) *Standby {
	t.Helper()
	s, err := New(primary.Log, standby, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// commitTxns runs n committed transactions of 4 updates each over the
// loaded keys, deterministically keyed off base.
func commitTxns(t *testing.T, eng *engine.Engine, n int, base uint64) {
	t.Helper()
	table := eng.Cfg.TableID
	for i := uint64(0); i < uint64(n); i++ {
		txn := begin(t, eng)
		for j := uint64(0); j < 4; j++ {
			key := (base*7 + i*13 + j*31) % testRows
			val := []byte(fmt.Sprintf("upd-%d-%d-%d", base, i, j))
			if err := txn.Update(table, key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// digest hashes every row of the engine's table: FNV-1a over
// big-endian key then value, in key order.
func digest(t testing.TB, eng *engine.Engine) uint64 {
	t.Helper()
	h := fnv.New64a()
	err := eng.Set.ScanAll(func(key uint64, val []byte) error {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], key)
		h.Write(kb[:])
		h.Write(val)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// promote fails over and asserts the promoted engine matches want.
func promote(t *testing.T, s *Standby, want uint64) (*engine.Engine, *core.Metrics) {
	t.Helper()
	promoted, met, err := s.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(t, promoted); got != want {
		t.Fatalf("promoted digest %016x, want %016x", got, want)
	}
	return promoted, met
}

// checkPromotedServes proves the promoted engine is a working primary:
// a fresh transaction commits and reads back.
func checkPromotedServes(t *testing.T, promoted *engine.Engine) {
	t.Helper()
	txn := begin(t, promoted)
	if err := txn.Update(promoted.Cfg.TableID, 1, []byte("post-promote")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	got, found, err := promoted.Set.Read(promoted.Cfg.TableID, 1)
	if err != nil || !found {
		t.Fatalf("reading post-promote row: found=%v err=%v", found, err)
	}
	if !bytes.Equal(got, []byte("post-promote")) {
		t.Fatalf("post-promote row = %q", got)
	}
}

// seededTxns commits n transactions of 4 operations drawn from a
// workload generator: about a third are reads, so the seed decides how
// many update records the stream carries as well as which keys.
func seededTxns(t testing.TB, eng *engine.Engine, n int, seed int64) {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.Rows = testRows
	wcfg.ReadFraction = 0.3
	wcfg.Seed = seed
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		txn := begin(t, eng)
		for j := 0; j < 4; j++ {
			op := gen.NextOp()
			if op.Kind == workload.OpRead {
				continue
			}
			if err := txn.Update(eng.Cfg.TableID, op.Key, gen.UpdateValue(op.Key)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStandbyConvergesAndPromotes(t *testing.T) {
	// The seeded scenario runs twice from fresh engines. The logical
	// stream fully determines the standby's work, so however the pump
	// happened to cut the segments, both runs must replay and apply
	// exactly the same record counts.
	var first core.ReplayStats
	for run := 0; run < 2; run++ {
		primary := newPrimary(t, 2)
		standby := newStandby(t, primary, nil)
		s := attach(t, primary, standby, Config{SegmentBytes: 4 << 10, CheckpointEveryRecords: 200})
		s.Start()

		// Live traffic while the pump runs concurrently.
		seededTxns(t, primary, 150, 1)
		if err := s.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if lag := s.Lag(); lag.Bytes != 0 || lag.Records != 0 {
			t.Fatalf("lag after catch-up: %+v", lag)
		}
		st := s.Stats()
		if st.Replay.Records == 0 || st.Replay.Applied == 0 {
			t.Fatalf("replayer did nothing: %+v", st.Replay)
		}
		if st.Segments == 0 || st.ShippedBytes == 0 {
			t.Fatalf("nothing shipped: %+v", st)
		}
		if run == 0 {
			first = st.Replay
		} else if st.Replay.Records != first.Records || st.Replay.Applied != first.Applied {
			t.Fatalf("identical seeded runs replayed differently: %+v then %+v", first, st.Replay)
		}

		want := digest(t, primary)
		promoted, met := promote(t, s, want)
		if met.LosersUndone != 0 {
			t.Fatalf("clean promote undid %d losers", met.LosersUndone)
		}
		checkPromotedServes(t, promoted)
	}
}

// tornFrame builds the byte shape wal.TearTail injects: a frame header
// claiming a 16 MiB body, cut short and filled with 0xA5.
func tornFrame(n int) []byte {
	frame := make([]byte, 5+n)
	binary.BigEndian.PutUint32(frame, 1<<24)
	frame[4] = byte(wal.TypeUpdate)
	for i := 5; i < len(frame); i++ {
		frame[i] = 0xA5
	}
	return frame[:n]
}

func TestStandbyFaultInjection(t *testing.T) {
	// Each case mangles the first several segments of the stream and
	// then ships cleanly; the healing protocol must converge to the
	// primary's exact state regardless.
	cases := []struct {
		name      string
		segBytes  int
		mangle    func(faults *int) func(wal.Segment) []wal.Segment
		wantHeals bool
	}{
		{
			// Every early segment delivered twice: ingest must be
			// idempotent. Duplicates are absorbed without a heal.
			name: "duplicated",
			mangle: func(faults *int) func(wal.Segment) []wal.Segment {
				return func(seg wal.Segment) []wal.Segment {
					if *faults >= 6 {
						return []wal.Segment{seg}
					}
					*faults++
					return []wal.Segment{seg, seg}
				}
			},
		},
		{
			// Early segments held back one delivery and re-sent after
			// their successor: the successor hits a gap, the shipper
			// resumes from the watermark.
			name: "delayed-reordered",
			mangle: func(faults *int) func(wal.Segment) []wal.Segment {
				var held []wal.Segment
				return func(seg wal.Segment) []wal.Segment {
					if *faults >= 6 {
						if len(held) > 0 {
							out := append(held, seg)
							held = nil
							return out
						}
						return []wal.Segment{seg}
					}
					*faults++
					if len(held) == 0 {
						held = []wal.Segment{seg}
						return nil
					}
					out := []wal.Segment{seg, held[0]}
					held = nil
					return out
				}
			},
			wantHeals: true,
		},
		{
			// Early segments torn mid-transfer: only the first half
			// arrives. The applier buffers the cut frame and the shipper
			// resumes from the ingest watermark.
			name: "torn",
			mangle: func(faults *int) func(wal.Segment) []wal.Segment {
				return func(seg wal.Segment) []wal.Segment {
					if *faults >= 6 || len(seg.Data) < 2 {
						return []wal.Segment{seg}
					}
					*faults++
					return []wal.Segment{{From: seg.From, Data: seg.Data[:len(seg.Data)/2]}}
				}
			},
			wantHeals: true,
		},
		{
			// Early segments arrive with torn-tail garbage appended — the
			// same byte shape a crashed primary's torn frame has. The
			// applier rejects the garbage, keeps the valid prefix, and
			// the shipper re-ships from the watermark. The segment size
			// is large so segments end at the stable boundary (a frame
			// boundary): trailing garbage lands between frames, where the
			// frame walk can see it — garbage spliced into the middle of
			// a frame body is indistinguishable from data by design (the
			// codec has no per-frame checksum), just as a torn file tail
			// is only detectable at a frame boundary.
			name:     "garbage-appended",
			segBytes: 1 << 20,
			mangle: func(faults *int) func(wal.Segment) []wal.Segment {
				return func(seg wal.Segment) []wal.Segment {
					if *faults >= 4 {
						return []wal.Segment{seg}
					}
					*faults++
					data := append(append([]byte(nil), seg.Data...), tornFrame(40)...)
					return []wal.Segment{{From: seg.From, Data: data}}
				}
			},
			wantHeals: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			primary := newPrimary(t, 2)
			standby := newStandby(t, primary, nil)
			segBytes := tc.segBytes
			if segBytes == 0 {
				segBytes = 512 // many small segments → many fault sites
			}
			var faults int
			s := attach(t, primary, standby, Config{
				SegmentBytes: segBytes,
				Mangle:       tc.mangle(&faults),
			})
			s.Start()
			commitTxns(t, primary, 120, 2)
			if err := s.WaitCaughtUp(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if faults == 0 {
				t.Fatal("fault injector never fired")
			}
			st := s.Stats()
			if tc.wantHeals && st.HealEvents == 0 {
				t.Fatalf("no heal events despite %d injected faults", faults)
			}
			want := digest(t, primary)
			promoted, _ := promote(t, s, want)
			checkPromotedServes(t, promoted)
			if got, want := promoted.Log.StableRecords(), primary.Log.StableRecords(); got < want {
				t.Fatalf("promoted log has %d stable records, primary %d", got, want)
			}
		})
	}
}

func TestPromoteUndoesInFlightLosers(t *testing.T) {
	primary := newPrimary(t, 2)
	standby := newStandby(t, primary, nil)
	s := attach(t, primary, standby, Config{SegmentBytes: 4 << 10})
	s.Start()

	commitTxns(t, primary, 60, 3)
	// The committed-only state is what a failover must converge to.
	want := digest(t, primary)

	// An in-flight transaction whose updates reach the stable log (the
	// EOSL force ships them) but never commits: the promoted standby
	// must roll it back.
	loser := begin(t, primary)
	for _, key := range []uint64{5, 105, 1105} {
		if err := loser.Update(primary.Cfg.TableID, key, []byte("loser")); err != nil {
			t.Fatal(err)
		}
	}
	primary.TC.SendEOSL()

	if err := s.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	promoted, met := promote(t, s, want)
	if met.LosersUndone != 1 {
		t.Fatalf("LosersUndone = %d, want 1", met.LosersUndone)
	}
	if met.CLRsWritten == 0 {
		t.Fatal("promotion rolled back a loser without CLRs")
	}
	for _, key := range []uint64{5, 105, 1105} {
		got, found, err := promoted.Set.Read(promoted.Cfg.TableID, key)
		if err != nil || !found {
			t.Fatalf("key %d after promote: found=%v err=%v", key, found, err)
		}
		if bytes.Equal(got, []byte("loser")) {
			t.Fatalf("key %d still carries the loser's update", key)
		}
	}
	checkPromotedServes(t, promoted)
}

func TestReplayLogicalDifferentGeometry(t *testing.T) {
	// The paper's §1.1 contract: the logical log names tables and keys,
	// not pages, so a standby with quarter-size pages and a different
	// shard count consumes the identical stream.
	primary := newPrimary(t, 2)
	standby := newStandby(t, primary, func(cfg *engine.Config) {
		cfg.Shards = 1
		cfg.Disk.PageSize = 1024
		cfg.CachePages = 2048
	})
	s := attach(t, primary, standby, Config{SegmentBytes: 4 << 10})
	s.Start()

	commitTxns(t, primary, 80, 4)
	// Inserts and deletes too: logical replay must handle all three ops.
	txn := begin(t, primary)
	for k := uint64(testRows); k < testRows+20; k++ {
		if err := txn.Insert(primary.Cfg.TableID, k, []byte(fmt.Sprintf("ins-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 10; k++ {
		if err := txn.Delete(primary.Cfg.TableID, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := s.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := digest(t, primary)
	promoted, _ := promote(t, s, want)
	checkPromotedServes(t, promoted)
	if promoted.Cfg.Disk.PageSize == primary.Cfg.Disk.PageSize {
		t.Fatal("test lost its point: geometries match")
	}
}

func TestReplayLagStaysBounded(t *testing.T) {
	// Satellite: sustained zipfian traffic with backpressure at half the
	// bound keeps every observed lag sample under the bound, and a
	// post-EOSL promote yields the primary's exact state.
	const lagBound = 64 << 10
	primary := newPrimary(t, 2)
	standby := newStandby(t, primary, nil)
	s := attach(t, primary, standby, Config{
		SegmentBytes: 4 << 10,
		MaxLagBytes:  lagBound,
	})
	s.Start()

	wcfg := workload.DefaultConfig()
	wcfg.Rows = testRows
	wcfg.Dist = workload.Zipf
	wcfg.ReadFraction = 0
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxLag int64
	for i := 0; i < 300; i++ {
		if s.Lag().Bytes > lagBound/2 {
			if err := s.WaitLagBelow(lagBound/2, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		txn := begin(t, primary)
		for j := 0; j < 8; j++ {
			key := gen.NextKey()
			if err := txn.Update(primary.Cfg.TableID, key, gen.UpdateValue(key)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if lag := s.Lag().Bytes; lag > maxLag {
			maxLag = lag
		}
	}
	if maxLag > lagBound {
		t.Fatalf("observed lag %d bytes exceeded the %d bound", maxLag, lagBound)
	}
	if maxLag == 0 {
		t.Fatal("lag never rose: the traffic did not stress the pump")
	}

	primary.TC.SendEOSL()
	if err := s.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := digest(t, primary)
	promoted, _ := promote(t, s, want)
	checkPromotedServes(t, promoted)
}

// commitBigTxns commits 4-update transactions with values of about
// 600 bytes until the primary's log has grown by at least bytes, and
// steers around the keys in locked.
func commitBigTxns(t *testing.T, eng *engine.Engine, bytes int64, locked map[uint64]bool, salt *uint64) {
	t.Helper()
	table := eng.Cfg.TableID
	for target := eng.Log.EndLSN() + wal.LSN(bytes); eng.Log.EndLSN() < target; {
		txn := begin(t, eng)
		for j := 0; j < 4; j++ {
			*salt++
			key := (*salt * 37) % testRows
			for locked[key] {
				key = (key + 1) % testRows
			}
			val := bytes600(key, *salt)
			if err := txn.Update(table, key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func bytes600(key, salt uint64) []byte {
	v := bytes.Repeat([]byte{byte('a' + salt%26)}, 600)
	copy(v, fmt.Sprintf("big-%d-%d-", key, salt))
	return v
}

// TestPromoteAfterStandbyReleases ships enough log for the standby to
// release its own copy several times, the last times with a loser in
// flight that began before them: the standby's checkpoints may then
// release only up to that transaction's first record, and the
// promotion's undo sweep must still find its whole backchain. The
// primary releases behind the shipper's hold all along.
func TestPromoteAfterStandbyReleases(t *testing.T) {
	const segment = 1 << 20 // the WAL's segment capacity
	primary := newPrimary(t, 1)
	standby := newStandby(t, primary, nil)
	s := attach(t, primary, standby, Config{SegmentBytes: 32 << 10, CheckpointEveryRecords: 300})

	var salt uint64
	locked := map[uint64]bool{}
	releases, releasesWithLoser := 0, 0
	var loser *tc.Session
	// round commits, checkpoints the primary, and pumps the standby dry,
	// counting the standby releases that moved its log's start.
	round := func(logBytes int64) {
		t.Helper()
		commitBigTxns(t, primary, logBytes, locked, &salt)
		if err := primary.TC.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for {
			before := standby.Log.StartLSN()
			progressed, err := s.PumpOnce()
			if err != nil {
				t.Fatal(err)
			}
			if standby.Log.StartLSN() > before {
				releases++
				if loser != nil {
					releasesWithLoser++
				}
			}
			if !progressed {
				return
			}
		}
	}
	// A standby checkpoint releases up to the last primary checkpoint
	// it has seen, so its releases trail the rounds by one.
	for i := 0; i < 4; i++ {
		round(segment * 3 / 2)
	}
	if releases < 3 {
		t.Fatalf("standby released %d times over four checkpointed rounds, want at least 3", releases)
	}
	if primary.Log.StartLSN() == wal.FirstLSN() {
		t.Fatal("the primary never released behind the shipper")
	}

	// The loser starts a segment and a half into the fifth round.
	commitBigTxns(t, primary, segment*3/2, locked, &salt)
	loser = begin(t, primary)
	for _, key := range []uint64{7, 707} {
		locked[key] = true
		if err := loser.Update(primary.Cfg.TableID, key, []byte("loser")); err != nil {
			t.Fatal(err)
		}
	}
	first := loser.Txn().FirstLSN()
	round(segment)
	round(segment * 3 / 2)
	if releasesWithLoser == 0 {
		t.Fatal("no standby release happened while the loser was in flight")
	}
	if start := standby.Log.StartLSN(); start > first || start+segment <= first {
		t.Fatalf("standby log starts at %v, the in-flight transaction's first record is at %v: want the segment holding it", start, first)
	}

	// The committed-only state is what the failover must converge to.
	locked[1207] = true
	if err := loser.Update(primary.Cfg.TableID, 1207, []byte("loser")); err != nil {
		t.Fatal(err)
	}
	primary.TC.SendEOSL()
	want := func() uint64 {
		// Roll the loser back on a recovered copy of the primary, which
		// is what the committed state is.
		rec, _, err := core.Recover(primary.Crash(), core.Log2, core.DefaultOptions(primary.Cfg))
		if err != nil {
			t.Fatal(err)
		}
		return digest(t, rec)
	}()
	promoted, met := promote(t, s, want)
	if met.LosersUndone != 1 || met.CLRsWritten != 3 {
		t.Fatalf("promotion undid %d losers with %d CLRs, want 1 and 3", met.LosersUndone, met.CLRsWritten)
	}
	if start := promoted.Log.StartLSN(); start <= first {
		t.Fatalf("promoted log still starts at %v: its first checkpoint should have released past the rolled-back loser (%v)", start, first)
	}
	checkPromotedServes(t, promoted)
	t.Logf("%d standby releases (%d with the loser in flight)", releases, releasesWithLoser)
}

// TestFailedPumpReleasesItsHold: a pump that dies gives up its hold on
// the primary's log at once, not at Stop or Promote. The standby here
// lacks half the rows, so replaying the primary's update of one of them
// fails the pump; the primary keeps committing and checkpointing, and
// its log must release past the dead standby's watermark.
func TestFailedPumpReleasesItsHold(t *testing.T) {
	const segment = 1 << 20 // the WAL's segment capacity
	primary := newPrimary(t, 1)
	cfg := primary.Cfg
	cfg.Standby = true
	standby, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.Load(testRows/2, initVal); err != nil {
		t.Fatal(err)
	}
	s := attach(t, primary, standby, Config{SegmentBytes: 32 << 10})
	s.Start()
	defer s.Stop()

	txn := begin(t, primary)
	if err := txn.Update(primary.Cfg.TableID, testRows-1, []byte("not on the standby")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the pump replayed an update of a row the standby lacks")
	}
	if s.Err() == nil {
		t.Fatal("the pump stopped without an error")
	}
	watermark := standby.Log.FlushedLSN()

	var salt uint64
	for i := 0; i < 3; i++ {
		commitBigTxns(t, primary, segment*3/2, nil, &salt)
		if err := primary.TC.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if start := primary.Log.StartLSN(); start <= watermark {
		t.Fatalf("primary log still starts at %v, at or below the dead standby's watermark %v: the failed pump kept its hold", start, watermark)
	}
	if _, _, err := s.Promote(); err == nil {
		t.Fatal("promoted a dead standby")
	}
}

// TestReadOnlyPrimaryShipsNothing: transactions that only read append
// nothing to the primary's log, so a caught-up standby stays caught up
// through any number of them with no pump round in between — zero lag,
// nothing to ship.
func TestReadOnlyPrimaryShipsNothing(t *testing.T) {
	primary := newPrimary(t, 2)
	standby := newStandby(t, primary, nil)
	s := attach(t, primary, standby, Config{SegmentBytes: 4 << 10})
	mgr := primary.NewSessionManager(0)
	sess := mgr.NewSession()
	table := primary.Cfg.TableID

	// One writer first, so the readers below read shipped, replayed rows.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Update(table, 5, []byte("written")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	for {
		progressed, err := s.PumpOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if lag := s.Lag(); lag.Bytes != 0 || lag.Records != 0 {
		t.Fatalf("lag after draining the pump: %+v", lag)
	}
	shipped := s.Stats()

	for i := uint64(0); i < 500; i++ {
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Read(table, i%testRows); err != nil {
			t.Fatal(err)
		}
		if err := sess.ScanRange(table, i, i+20, nil, func(uint64, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if lag := s.Lag(); lag.Bytes != 0 || lag.Records != 0 {
		t.Errorf("read-only transactions opened a lag of %+v", lag)
	}
	if progressed, err := s.PumpOnce(); err != nil || progressed {
		t.Errorf("pump after read-only transactions: progressed=%v err=%v, want nothing to ship", progressed, err)
	}
	if st := s.Stats(); st.ShippedBytes != shipped.ShippedBytes || st.Segments != shipped.Segments {
		t.Errorf("shipped %d bytes in %d segments for read-only transactions",
			st.ShippedBytes-shipped.ShippedBytes, st.Segments-shipped.Segments)
	}
	promote(t, s, digest(t, primary))
}

// TestSecondReplayerAppliesNothingTwice: update records are patches, so
// re-delivering one to a standby is not harmless the way re-delivering a
// whole image was. A second Replayer built over a standby engine that an
// earlier one has already fed — the shape of a replayer restart — must
// resume applying at the engine's applied LSN, yet still know the
// in-flight transactions below it. The window holds same-length,
// multi-field, growing and shrinking updates of the same keys, a delete
// with a re-insert, and a loser; afterwards the standby equals the
// primary, the second replayer has applied nothing, and its Promote
// rolls the loser back — on the primary's geometry and on another.
func TestSecondReplayerAppliesNothingTwice(t *testing.T) {
	geometries := []struct {
		name   string
		mutate func(*engine.Config)
	}{
		{"equal-geometry", nil},
		{"unequal-geometry", func(cfg *engine.Config) {
			cfg.Shards = 1
			cfg.Disk.PageSize = 1024
			cfg.CachePages = 2048
		}},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			primary := newPrimary(t, 2)
			standby := newStandby(t, primary, g.mutate)
			s := attach(t, primary, standby, Config{SegmentBytes: 4 << 10, CheckpointEveryRecords: 64})
			table := primary.Cfg.TableID

			rows := []string{
				"init-%06d",                   // (the loaded row)
				"INIT-%06d",                   // same length
				"iNiT-%06d-x",                 // several fields, one byte longer
				"iNiT-%06d-x-and-a-long-tail", // growing
				"i-%06d",                      // shrinking
				"i-%06d",                      // nothing at all
			}
			for round := 1; round < len(rows); round++ {
				txn := begin(t, primary)
				for key := uint64(10); key < 400; key += 13 {
					if err := txn.Update(table, key, []byte(fmt.Sprintf(rows[round], key))); err != nil {
						t.Fatal(err)
					}
				}
				if round == 3 {
					for key := uint64(500); key < 520; key++ {
						if err := txn.Delete(table, key); err != nil {
							t.Fatal(err)
						}
						if err := txn.Insert(table, key, []byte(fmt.Sprintf("back-%d", key))); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			want := digest(t, primary) // the committed state
			loser := begin(t, primary)
			for _, key := range []uint64{10, 23, 700} {
				if err := loser.Update(table, key, []byte("a loser's row, longer than what it replaces")); err != nil {
					t.Fatal(err)
				}
			}
			primary.TC.SendEOSL()

			for {
				progressed, err := s.PumpOnce()
				if err != nil {
					t.Fatal(err)
				}
				if !progressed {
					break
				}
			}
			if got, live := digest(t, standby), digest(t, primary); got != live {
				t.Fatalf("first replayer: standby %016x, primary %016x", got, live)
			}

			rp := core.NewReplayer(standby)
			if err := rp.CatchUp(); err != nil {
				t.Fatalf("second replayer: %v", err)
			}
			if st := rp.Stats(); st.Ops != 0 || st.Applied != 0 || st.AppliedLSN != standby.Log.FlushedLSN() {
				t.Fatalf("second replayer re-applied: %+v", st)
			}
			if got, live := digest(t, standby), digest(t, primary); got != live {
				t.Fatalf("second replayer: standby %016x, primary %016x", got, live)
			}
			met, err := rp.Promote()
			if err != nil {
				t.Fatal(err)
			}
			if met.LosersUndone != 1 || met.CLRsWritten != 3 {
				t.Fatalf("promote undid %d losers with %d CLRs, want 1 and 3", met.LosersUndone, met.CLRsWritten)
			}
			if got := digest(t, standby); got != want {
				t.Fatalf("promoted digest %016x, want the committed state %016x", got, want)
			}
		})
	}
}

// TestCrashInPromoteWindowFailsLoudly: from Promote's undo until its
// first checkpoint, the promoted engine's master record is the primary's
// last checkpoint, so a crash there recovers from that checkpoint and
// meets the primary's SMO images. On a standby with another page size
// they cannot be installed, and every method must say so with an error
// rather than a panic. (Recovering from that window is open work.)
func TestCrashInPromoteWindowFailsLoudly(t *testing.T) {
	primary := newPrimary(t, 1)
	standby := newStandby(t, primary, func(cfg *engine.Config) {
		cfg.Shards = 2
		cfg.Disk.PageSize = 1024
		cfg.CachePages = 1024
	})
	s := attach(t, primary, standby, Config{SegmentBytes: 32 << 10})
	var salt uint64
	commitBigTxns(t, primary, 64<<10, nil, &salt) // 600-byte rows split leaves
	if primary.Log.AppendCount(wal.TypeSMO) == 0 {
		t.Fatal("test lost its point: the primary logged no SMO")
	}
	master := primary.TC.LastEndCkptLSN()
	promoted, _ := promote(t, s, digest(t, primary))

	cs := promoted.Crash()
	cs.LastEndCkpt = master // the crash lands before Promote's checkpoint
	for _, m := range core.Methods() {
		_, _, err := core.Recover(cs, m, core.DefaultOptions(cs.Cfg))
		if err == nil || !strings.Contains(err.Error(), "SMO") {
			t.Errorf("%v: recovery across the promote window: %v, want the SMO image refused", m, err)
		}
	}
}
