package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logrec/internal/storage"
)

// fileLog creates a file-backed log in a test temp dir and returns it
// with its backend and log directory.
func fileLog(t testing.TB) (*Log, *FileBackend, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	be, err := CreateFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	log := NewLog()
	if err := log.SetBackend(be); err != nil {
		t.Fatal(err)
	}
	return log, be, path
}

// fileLogSized is fileLog with segments of segCap bytes, so a few
// records span several files.
func fileLogSized(t testing.TB, segCap int) (*Log, *FileBackend, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal")
	be, err := CreateFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	log := newLog(segCap)
	if err := log.SetBackend(be); err != nil {
		t.Fatal(err)
	}
	return log, be, path
}

// TestGroupCommitOneSyncPerBatch is the fsync-amortization oracle: many
// concurrent committers over a file-backed log must produce one real
// log force (backend fsync) per group-commit batch, not one per commit.
// The device stats hook is the counter, cross-checked against the
// backend's own stats.
func TestGroupCommitOneSyncPerBatch(t *testing.T) {
	const (
		clients   = 8
		perClient = 25
	)
	log, be, _ := fileLog(t)

	var hookSyncs, hookWrites atomic.Int64
	be.SetIOHook(func(op storage.IOOp, n int) {
		switch op {
		case storage.OpSync:
			hookSyncs.Add(1)
		case storage.OpWrite:
			hookWrites.Add(1)
		}
	})

	// A small linger window plus the real fsync latency makes followers
	// pile into the leader's batch, as in production.
	gc := NewGroupCommitter(log, nil, 200*time.Microsecond)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				lsn := gc.MustAppend(&CommitRec{TxnID: 1})
				gc.WaitStable(lsn)
			}
		}(c)
	}
	wg.Wait()

	st := gc.Stats()
	syncs := hookSyncs.Load()
	if syncs != st.Flushes {
		t.Fatalf("got %d fsyncs for %d batch flushes; every flush must force exactly once", syncs, st.Flushes)
	}
	if syncs >= st.Commits {
		t.Fatalf("no amortization: %d fsyncs for %d commits", syncs, st.Commits)
	}
	if hookWrites.Load() == 0 {
		t.Fatal("stats hook never saw a log write")
	}
	t.Logf("%d commits → %d flushes/fsyncs (%.1f commits per force)",
		st.Commits, syncs, float64(st.Commits)/float64(syncs))
}

// TestOpenLogFileRoundTrip checks that the on-disk log holds exactly
// the stable prefix: flushed records survive a close/reopen, the
// volatile tail does not.
func TestOpenLogFileRoundTrip(t *testing.T) {
	log, _, path := fileLog(t)
	for i := 0; i < 10; i++ {
		log.MustAppend(&UpdateRec{TxnID: 1, KeyVal: uint64(i), NewVal: []byte(fmt.Sprintf("v%d", i))})
	}
	stableEnd := log.Flush()
	// Volatile tail: appended but never flushed — lost at the crash.
	log.MustAppend(&CommitRec{TxnID: 1})
	if err := log.CloseBackend(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenLogDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseBackend()
	if re.FlushedLSN() != stableEnd || re.EndLSN() != stableEnd {
		t.Fatalf("reopened log ends at %v/%v, want stable end %v", re.FlushedLSN(), re.EndLSN(), stableEnd)
	}
	if got := re.Records(); got != 10 {
		t.Fatalf("reopened log holds %d records, want 10", got)
	}
	if got := re.AppendCount(TypeCommit); got != 0 {
		t.Fatalf("volatile commit record survived the crash (%d commit records)", got)
	}
	// The reopened log must be writable and durable: append, force,
	// reopen again.
	lsn := re.MustAppend(&CommitRec{TxnID: 2})
	re.Flush()
	re.CloseBackend()
	re2, err := OpenLogDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.CloseBackend()
	rec, err := re2.Get(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := rec.(*CommitRec); !ok || c.TxnID != 2 {
		t.Fatalf("got %T %+v at %v, want commit of txn 2", rec, rec, lsn)
	}
}

// TestOpenLogFileTornTail tears the file mid-frame — inside the frame
// header and inside the body — and checks OpenLogDir trims back to the
// last complete record and truncates the file to match.
func TestOpenLogFileTornTail(t *testing.T) {
	for _, tear := range []int{1, 3, 12, 40} {
		t.Run(fmt.Sprintf("tear%d", tear), func(t *testing.T) {
			log, _, path := fileLog(t)
			for i := 0; i < 5; i++ {
				log.MustAppend(&UpdateRec{TxnID: 1, KeyVal: uint64(i), NewVal: []byte("val")})
			}
			stableEnd := log.Flush()
			if err := log.CloseBackend(); err != nil {
				t.Fatal(err)
			}
			if err := TearDir(path, tear); err != nil {
				t.Fatal(err)
			}
			segFile := filepath.Join(path, segFileName(FirstLSN()))
			wantSize := segHeaderSize + int64(stableEnd-FirstLSN())
			if info, err := os.Stat(segFile); err != nil || info.Size() != wantSize+int64(tear) {
				t.Fatalf("tear not applied: size %d err %v", info.Size(), err)
			}

			re, err := OpenLogDir(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.CloseBackend()
			if re.FlushedLSN() != stableEnd {
				t.Fatalf("trimmed log ends at %v, want %v", re.FlushedLSN(), stableEnd)
			}
			if got := re.Records(); got != 5 {
				t.Fatalf("trimmed log holds %d records, want 5", got)
			}
			if info, err := os.Stat(segFile); err != nil || info.Size() != wantSize {
				t.Fatalf("file not truncated back: size %d err %v", info.Size(), err)
			}
		})
	}
}

// TestOpenLogFileRejectsGarbage checks that a non-log segment file, an
// empty directory and a directory with a hole in its chain are refused
// rather than scanned.
func TestOpenLogFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenLogDir(dir); err == nil {
		t.Fatal("OpenLogDir accepted an empty directory")
	}
	path := filepath.Join(dir, segFileName(FirstLSN()))
	if err := os.WriteFile(path, []byte("definitely not a WAL segment header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogDir(dir); err == nil {
		t.Fatal("OpenLogDir accepted garbage")
	}

	log, _, gapDir := fileLogSized(t, 256)
	for i := 0; i < 40; i++ {
		log.MustAppend(&UpdateRec{TxnID: 1, KeyVal: uint64(i), NewVal: make([]byte, 40)})
	}
	log.Flush()
	if err := log.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	bases, err := listSegFiles(gapDir)
	if err != nil || len(bases) < 3 {
		t.Fatalf("want at least 3 segment files, got %d (%v)", len(bases), err)
	}
	if err := os.Remove(filepath.Join(gapDir, segFileName(bases[1]))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogDir(gapDir); err == nil {
		t.Fatal("OpenLogDir accepted a chain with a missing segment")
	}
}

// TestOpenLogDirRefusesOldFormat: a wal/ directory written in an
// earlier format — whole-image updates (segment version 2), the
// fixed-width frame header and absolute back-pointers of version 3,
// version 4's two patch lengths and written trailing zeros, or version
// 5's unmarked ∆ written-page count, version 6's counter for a
// transaction's name, version 7's tail on an in-place patch, prev on a
// commit and written pages in flush order, or version 8's table in every
// data record and SMO — holds bytes this decoder would misread; it is refused by its header with ErrBadRecord, not
// decoded.
func TestOpenLogDirRefusesOldFormat(t *testing.T) {
	log, _, dir := fileLog(t)
	log.MustAppend(&CommitRec{TxnID: 1})
	log.Flush()
	if err := log.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogDir(dir); err != nil {
		t.Fatalf("a current-format directory must open: %v", err)
	}
	path := filepath.Join(dir, segFileName(FirstLSN()))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []uint32{2, 3, 4, 5, 6, 7, 8} {
		binary.BigEndian.PutUint32(buf[8:], old)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLogDir(dir); !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", old)) {
			t.Fatalf("OpenLogDir of a version-%d segment: %v, want a version refusal", old, err)
		}
	}
}

// FuzzOpenLogDir is the restart path's fuzz target: a healthy sealed
// segment followed by a last segment file made of arbitrary bytes —
// header and contents both. OpenLogDir must trim it or refuse it, never
// panic, and whatever it accepts must be a log that scans to its stable
// end without a decode error and reopens to the same state.
func FuzzOpenLogDir(f *testing.F) {
	const sealedRecs = 3
	good, _, goodDir := fileLog(f)
	for i := 0; i < sealedRecs; i++ {
		good.MustAppend(&UpdateRec{TxnID: 1, KeyVal: uint64(i), NewVal: make([]byte, 60)})
	}
	end := good.Flush()
	if err := good.CloseBackend(); err != nil {
		f.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(goodDir, segFileName(FirstLSN())))
	if err != nil {
		f.Fatal(err)
	}
	frames := encodeFrame(&CommitRec{TxnID: 1}, end)
	frames = append(frames, encodeFrame(&UpdateRec{TxnID: 2, NewVal: []byte("v"), PrevLSN: end}, end+LSN(len(frames)))...)
	torn, _ := tornFrame(9)
	f.Add(segHeader(end), frames)
	f.Add(segHeader(end), append(append([]byte(nil), frames...), torn...))
	f.Add(segHeader(end), frames[:len(frames)-3])
	f.Add(segHeader(end), []byte{})
	f.Add(segHeader(end)[:10], []byte{})
	f.Add(segHeader(end+1), frames)
	f.Add([]byte("definitely not a WAL segment header"), frames)
	f.Add(segHeader(end), []byte{0xFF, 2, 1, 2})

	f.Fuzz(func(t *testing.T, header, contents []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFileName(FirstLSN())), first, 0o644); err != nil {
			t.Fatal(err)
		}
		last := filepath.Join(dir, segFileName(end))
		if err := os.WriteFile(last, append(append([]byte(nil), header...), contents...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLogDir(dir)
		if err != nil {
			return
		}
		stable, recs := l.FlushedLSN(), l.Records()
		if stable < end || recs < sealedRecs {
			t.Fatalf("opened log lost the sealed segment: stable %v (sealed end %v), %d records", stable, end, recs)
		}
		dump := drainScan(l.NewScanner(l.StartLSN(), nil, ScanCost{}).Next)
		if dump.err != nil || int64(len(dump.lsns)) != recs {
			t.Fatalf("opened log replays %d records (err %v), header says %d", len(dump.lsns), dump.err, recs)
		}
		if err := l.CloseBackend(); err != nil {
			t.Fatal(err)
		}
		// The trim is on disk: a second open finds the same log.
		re, err := OpenLogDir(dir)
		if err != nil {
			t.Fatalf("reopen after trim: %v", err)
		}
		defer re.CloseBackend()
		if re.FlushedLSN() != stable || re.Records() != recs {
			t.Fatalf("reopen: stable %v, %d records; first open had %v, %d", re.FlushedLSN(), re.Records(), stable, recs)
		}
	})
}
