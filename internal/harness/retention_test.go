package harness

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// soak stretches the bounded-memory test from about two seconds to ten
// minutes (`make soak`).
var soak = flag.Bool("soak", false, "run the bounded-log soak test for 10 minutes")

// logSegmentBytes is the WAL's segment capacity (wal.segmentBytes):
// releases happen a segment at a time, so these tests size their traffic
// and their bounds in it.
const logSegmentBytes = 1 << 20

const (
	retentionRows     = 2000
	retentionValBytes = 320 // an update record carries two of these
)

func retentionVal(k uint64, ver int) []byte {
	v := make([]byte, retentionValBytes)
	copy(v, fmt.Sprintf("row-%06d-v%06d-", k, ver))
	for i := 24; i < len(v); i++ {
		v[i] = byte('a' + (int(k)+ver+i)%26)
	}
	return v
}

// retentionDriver commits update traffic on a directly driven TC,
// keeping the oracle and steering around keys a loser holds locked.
type retentionDriver struct {
	t      *testing.T
	eng    *engine.Engine
	mgr    *tc.SessionManager
	oracle map[uint64][]byte
	locked map[uint64]bool
	next   uint64
	ver    int
}

func newRetentionDriver(t *testing.T, cfg engine.Config) *retentionDriver {
	t.Helper()
	cfg.CachePages = 128
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &retentionDriver{t: t, eng: eng, oracle: make(map[uint64][]byte, retentionRows), locked: make(map[uint64]bool)}
	if err := eng.Load(retentionRows, func(k uint64) []byte {
		v := retentionVal(k, 0)
		d.oracle[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	d.mgr = eng.NewSessionManager(0)
	return d
}

// commit runs committed 8-update transactions until the log has grown
// by at least bytes.
func (d *retentionDriver) commit(bytes int64) {
	d.t.Helper()
	table := d.eng.Cfg.TableID
	for target := d.eng.Log.EndLSN() + wal.LSN(bytes); d.eng.Log.EndLSN() < target; {
		txn := d.begin()
		d.ver++
		staged := make(map[uint64][]byte, 8)
		for u := 0; u < 8; u++ {
			d.next = (d.next*31 + 17) % retentionRows
			for d.locked[d.next] {
				d.next = (d.next + 1) % retentionRows
			}
			staged[d.next] = retentionVal(d.next, d.ver)
			if err := txn.Update(table, d.next, staged[d.next]); err != nil {
				d.t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			d.t.Fatal(err)
		}
		for k, v := range staged {
			d.oracle[k] = v
		}
	}
}

// begin opens a transaction on a new session.
func (d *retentionDriver) begin() *tc.Session {
	d.t.Helper()
	s := d.mgr.NewSession()
	if err := s.Begin(); err != nil {
		d.t.Fatal(err)
	}
	return s
}

// lose has txn update keys without committing; they stay locked.
func (d *retentionDriver) lose(txn *tc.Session, keys ...uint64) {
	d.t.Helper()
	for _, k := range keys {
		d.locked[k] = true
		if err := txn.Update(d.eng.Cfg.TableID, k, retentionVal(k, -1)); err != nil {
			d.t.Fatal(err)
		}
	}
}

// checkpoint takes one and reports whether it released anything.
func (d *retentionDriver) checkpoint() bool {
	d.t.Helper()
	before := d.eng.Log.StartLSN()
	if err := d.eng.TC.Checkpoint(); err != nil {
		d.t.Fatal(err)
	}
	return d.eng.Log.StartLSN() > before
}

// TestRecoveryOverReleasedLog crashes an engine whose log has been
// released under it several times — the redo scan start, the losers'
// backchains and a torn tail are all that is left — on the simulated
// and the file device. A long-running loser begins between two
// releases, so the later checkpoints may release only up to its first
// record; the undo pass must find every record of its backchain. All
// five methods, inline and two workers wide, must reach the oracle
// state having seen the same redo window and written the same CLRs.
func TestRecoveryOverReleasedLog(t *testing.T) {
	for _, device := range []engine.DeviceKind{engine.DeviceSim, engine.DeviceFile} {
		name := "sim"
		if device == engine.DeviceFile {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			cfg := engine.DefaultConfig()
			if device == engine.DeviceFile {
				cfg.Device, cfg.Dir = device, t.TempDir()
			}
			d := newRetentionDriver(t, cfg)
			interval := int64(logSegmentBytes * 5 / 4)

			releases := 0
			for i := 0; i < 2; i++ {
				d.commit(interval)
				if d.checkpoint() {
					releases++
				}
			}
			if releases < 2 {
				t.Fatalf("%d releases after two checkpoints, each more than a segment apart; want 2", releases)
			}

			// The long-running loser starts here, mid-interval, and keeps
			// working across two more checkpoints.
			d.commit(interval / 2)
			long := d.begin()
			d.lose(long, 11, 511)
			first := long.Txn().FirstLSN()
			d.commit(interval)
			if d.checkpoint() {
				releases++
			}
			d.lose(long, 1011)
			d.commit(interval)
			d.checkpoint() // the last one: the loser's first record precedes it
			if start := d.eng.Log.StartLSN(); start > first || start+logSegmentBytes <= first {
				t.Fatalf("log starts at %v with the oldest active transaction's first record at %v: want the segment holding it", start, first)
			}
			if end, err := d.eng.Log.Get(d.eng.TC.LastEndCkptLSN()); err != nil || end.(*wal.EndCkptRec).BeginLSN <= first {
				t.Fatalf("last checkpoint %v (%v) does not follow the loser's first record %v", end, err, first)
			}

			// A short loser and a little more traffic past the checkpoint.
			d.commit(interval / 4)
			short := d.begin()
			d.lose(short, 1511, 1911)
			d.lose(long, 1711)
			d.eng.TC.SendEOSL()

			st := d.eng.Stats()
			if st.LogStartLSN != d.eng.Log.StartLSN() || st.LogReleasedBytes != int64(st.LogStartLSN-wal.FirstLSN()) ||
				st.LogRetainedBytes != int64(d.eng.Log.EndLSN()-st.LogStartLSN) || st.LogSegments < 2 {
				t.Fatalf("engine stats disagree with the log: %+v", st)
			}
			if st.LogReleasedBytes < 2*logSegmentBytes {
				t.Fatalf("only %d bytes released", st.LogReleasedBytes)
			}
			t.Logf("%d releases, %d bytes released, %d retained in %d segments", releases, st.LogReleasedBytes, st.LogRetainedBytes, st.LogSegments)

			cs := d.eng.Crash()
			if err := cs.TearTail(17); err != nil {
				t.Fatal(err)
			}

			var ref *core.Metrics
			for _, m := range core.Methods() {
				for _, width := range []int{0, 2} {
					what := fmt.Sprintf("%v width %d", m, width)
					opt := core.DefaultOptions(cs.Cfg)
					opt.RedoWorkers, opt.UndoWorkers = width, width
					eng, met, err := core.Recover(cs, m, opt)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if err := Verify(eng, d.oracle); err != nil {
						t.Fatalf("%s: wrong state: %v", what, err)
					}
					if err := eng.DC.Tree().CheckInvariants(); err != nil {
						t.Fatalf("%s: tree: %v", what, err)
					}
					if met.LosersUndone != 2 || met.CLRsWritten != 6 {
						t.Fatalf("%s: undid %d losers with %d CLRs, want 2 and 6", what, met.LosersUndone, met.CLRsWritten)
					}
					if ref == nil {
						ref = met
					}
					if met.RedoRecords != ref.RedoRecords || met.CLRsWritten != ref.CLRsWritten {
						t.Errorf("%s: RedoRecords %d CLRsWritten %d, first run had %d and %d", what,
							met.RedoRecords, met.CLRsWritten, ref.RedoRecords, ref.CLRsWritten)
					}
					// The recovered engine's first checkpoint releases the
					// log the crash had to keep for the losers.
					if err := eng.TC.Checkpoint(); err != nil {
						t.Fatalf("%s: checkpoint after recovery: %v", what, err)
					}
					if start := eng.Log.StartLSN(); start <= first {
						t.Errorf("%s: log still starts at %v after the losers (first record %v) were rolled back", what, start, first)
					}
					if device == engine.DeviceFile {
						if err := eng.Log.CloseBackend(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestLogStaysBoundedUnderSustainedTraffic is the bounded-memory soak:
// one writer, a checkpoint every few thousand records (3.5 MiB of log),
// for about two seconds (ten minutes with -soak). At every checkpoint
// the retained log must fit the redo window plus two segments — the one
// the window starts in and the tail — and over the second half of the
// run the heap left after a forced GC must not grow.
func TestLogStaysBoundedUnderSustainedTraffic(t *testing.T) {
	runFor := 2 * time.Second
	if *soak {
		runFor = 10 * time.Minute
	}
	const ckptEveryBytes = 7 * logSegmentBytes / 2
	d := newRetentionDriver(t, engine.DefaultConfig())

	var heaps []uint64
	var maxWindow, maxRetained int64
	lastCkptAt := d.eng.Log.EndLSN()
	// For runFor, and however much longer a slow build (-race) needs for a
	// dozen checkpoints.
	for deadline := time.Now().Add(runFor); time.Now().Before(deadline) || len(heaps) < 12; {
		d.commit(ckptEveryBytes)
		// The redo window just before this checkpoint reaches back to the
		// previous one's begin record.
		window := int64(d.eng.Log.EndLSN() - lastCkptAt)
		lastCkptAt = d.eng.Log.EndLSN()
		d.checkpoint()
		st := d.eng.Stats()
		if st.LogRetainedBytes > window+2*logSegmentBytes {
			t.Fatalf("checkpoint %d: %d bytes retained in %d segments, redo window %d", len(heaps), st.LogRetainedBytes, st.LogSegments, window)
		}
		maxWindow, maxRetained = max(maxWindow, window), max(maxRetained, st.LogRetainedBytes)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
	}
	st := d.eng.Stats()
	if st.LogReleasedBytes < 4*logSegmentBytes {
		t.Fatalf("only %d bytes released over %d checkpoints", st.LogReleasedBytes, len(heaps))
	}

	// Flat: the post-GC heap never rises above the first half's high
	// water by more than a segment (the tail segment comes and goes).
	half := len(heaps) / 2
	firstHalfMax, secondHalfMax := slices.Max(heaps[:half]), slices.Max(heaps[half:])
	t.Logf("%d checkpoints, %d MiB logged, max window %d KiB, max retained %d KiB; post-GC heap max %d KiB (first half) %d KiB (second half)",
		len(heaps), st.LogReleasedBytes>>20, maxWindow>>10, maxRetained>>10, firstHalfMax>>10, secondHalfMax>>10)
	if secondHalfMax > firstHalfMax+logSegmentBytes {
		t.Fatalf("post-GC heap grew from %d to %d bytes over the second half of the run", firstHalfMax, secondHalfMax)
	}
}

// TestForkIntoReusedDirectory reuses an engine directory across two
// runs, the way the bench binaries do: the first run's fork left a WAL
// directory with more segment files than the second run's log has, and
// the second run's fork must not splice them into its chain.
func TestForkIntoReusedDirectory(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Device, cfg.Dir = engine.DeviceFile, t.TempDir()

	long := newRetentionDriver(t, cfg)
	long.commit(logSegmentBytes * 3 / 2) // two segment files
	_, _, log, err := long.eng.Crash().Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	if log.Segments() < 2 {
		t.Fatalf("first run forked %d log segments, want at least 2", log.Segments())
	}
	log.CloseBackend()

	short := newRetentionDriver(t, cfg) // same directory, one segment file
	short.commit(logSegmentBytes / 8)
	eng, _, err := core.Recover(short.eng.Crash(), core.Log1, core.DefaultOptions(cfg))
	if err != nil {
		t.Fatalf("fork over the first run's leftovers: %v", err)
	}
	if err := Verify(eng, short.oracle); err != nil {
		t.Fatal(err)
	}
	eng.Log.CloseBackend()
}
