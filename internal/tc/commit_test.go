// White-box tests for what a commit costs: a transaction that logged
// nothing appends and forces nothing (but still waits for a writer it
// read), and a zero-linger leader yields only when another announced
// writer is in flight.
package tc

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"logrec/internal/wal"
)

// logMark is everything a read-only transaction must leave unchanged.
type logMark struct {
	records, flushes, commits int64
	end                       wal.LSN
}

func markLog(m *SessionManager) logMark {
	st := m.CommitStats()
	return logMark{records: m.tc.log.Records(), end: m.tc.log.EndLSN(), flushes: st.Flushes, commits: st.Commits}
}

// requireNoWriters fails unless the announced-writer count is 0.
func requireNoWriters(t *testing.T, m *SessionManager, when string) {
	t.Helper()
	if n := m.CommitStats().Writers; n != 0 {
		t.Fatalf("%s: %d announced writers, want 0", when, n)
	}
}

func TestReadOnlyCommitAppendsNothing(t *testing.T) {
	const rows = 256
	m := newShardedMgr(t, 2, rows)
	s := m.NewSession()
	before, stats := markLog(m), m.tc.Stats()

	const txns = 1000
	for i := 0; i < txns; i++ {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		k := uint64(i % rows)
		if _, found, err := s.Read(1, k); err != nil || !found {
			t.Fatalf("read %d: found=%v err=%v", k, found, err)
		}
		n := 0
		// The range straddles the two shards every so often.
		if err := s.ScanRange(1, k, k+9, nil, func(uint64, []byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if want := min(10, rows-int(k)); n != want {
			t.Fatalf("scan [%d, %d] saw %d rows, want %d", k, k+9, n, want)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Read(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}

	// Reads on both shards and of an absent key, in one transaction.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, rows - 1, rows + 7} {
		if _, found, err := s.Read(1, k); err != nil || found != (k < rows) {
			t.Fatalf("read %d: found=%v err=%v", k, found, err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	if after := markLog(m); after != before {
		t.Errorf("read-only transactions moved the log: %+v -> %+v", before, after)
	}
	after := m.tc.Stats()
	if got := after.Committed - stats.Committed; got != txns+1 {
		t.Errorf("Committed rose by %d, want %d", got, txns+1)
	}
	if got := after.Aborted - stats.Aborted; got != 1 {
		t.Errorf("Aborted rose by %d, want 1", got)
	}
	if n := m.tc.txns.count(); n != 0 {
		t.Errorf("%d transactions still in the table", n)
	}
	if n := m.tc.locks.count(); n != 0 {
		t.Errorf("%d locks still held", n)
	}
	requireNoWriters(t, m, "after read-only transactions")
	requirePlanesFree(t, m, "after read-only transactions")
}

// TestReadOnlyCommitWaitsForWriterItRead pins the one thing a read-only
// commit can still wait for. Locks release before the durability wait,
// so a reader can see a write whose commit record is not stable yet; it
// used to be covered by forcing its own, later, commit record. Without
// one it must wait for the writer's.
func TestReadOnlyCommitWaitsForWriterItRead(t *testing.T) {
	const key = 7
	m := newShardedMgrDelay(t, 1, 64, 50*time.Millisecond)
	log := m.tc.log
	recs := log.Records()

	w := m.NewSession()
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Update(1, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	wt := w.Txn()
	done := make(chan error, 1)
	// The writer appends its commit record, releases its locks and then
	// lingers 50ms as the batch leader before forcing.
	go func() { done <- w.Commit() }()

	r := m.NewSession()
	var rid wal.TxnID
	for {
		if err := r.Begin(); err != nil {
			t.Fatal(err)
		}
		rid = r.Txn().ID
		v, _, err := r.Read(1, key)
		if err == nil {
			if string(v) != "new" {
				t.Fatalf("read %q under a shared lock, want the committed write", v)
			}
			break
		}
		if !errors.Is(err, ErrLockConflict) {
			t.Fatal(err)
		}
		// The writer still holds its exclusive lock.
		if err := r.Abort(); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	commitLSN := wt.LastLSN()
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if stable := log.FlushedLSN(); stable <= commitLSN {
		t.Errorf("reader's commit returned with the stable log ending at %v, not past the commit record at %v of the writer it read", stable, commitLSN)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := log.Records() - recs; got != 2 {
		t.Errorf("log grew by %d records, want the writer's update and commit only", got)
	}
	sc := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tr, isTxn := rec.(wal.Transactional); isTxn && tr.Txn() == rid {
			t.Errorf("%v record at %v names the reader", rec.Type(), lsn)
		}
	}
}

func TestLoneLeaderDoesNotYield(t *testing.T) {
	const rows = 64
	m := newShardedMgr(t, 1, rows)

	commitOne := func(s *Session, k uint64) error {
		if err := s.Begin(); err != nil {
			return err
		}
		if err := s.Update(1, k, []byte("v")); err != nil {
			return err
		}
		return s.Commit()
	}

	solo := m.NewSession()
	before := m.CommitStats()
	const commits = 10000
	for i := 0; i < commits; i++ {
		if err := commitOne(solo, uint64(i%rows)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.CommitStats()
	if st.Yields != 0 {
		t.Errorf("a lone writer yielded %d times in %d commits", st.Yields, commits)
	}
	if c, f := st.Commits-before.Commits, st.Flushes-before.Flushes; c != commits || f != commits {
		t.Errorf("lone writer: %d commits, %d flushes, want %d of each", c, f, commits)
	}
	requireNoWriters(t, m, "after the solo commits")

	// Two writers on disjoint keys, for as long as it takes them to
	// overlap: a leader that sees the other announced yields, and the
	// other's commit joins its batch.
	before = st
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		go func(c int) {
			s := m.NewSession()
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if err := commitOne(s, uint64(c*rows/2+i%(rows/2))); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	// While they run, each may be inside a commit whose force is not
	// counted yet: only a surplus beyond those two is a shared force.
	batched := func(inFlight int64) bool {
		st = m.CommitStats()
		return st.Yields > 0 && st.Commits-before.Commits > st.Flushes-before.Flushes+inFlight
	}
	for deadline := time.Now().Add(10 * time.Second); !batched(2) && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(stop)
	for c := 0; c < 2; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !batched(0) {
		t.Errorf("two writers: %d yields, %d commits over %d flushes; want a yield and a shared force",
			st.Yields, st.Commits-before.Commits, st.Flushes-before.Flushes)
	}
	requireNoWriters(t, m, "after the two writers")

	// Every way a transaction can fail to log, and every way a logged
	// one can end, retires exactly what was announced.
	a, b := m.NewSession(), m.NewSession()
	missing := func(s *Session) {
		t.Helper()
		if err := s.Update(1, rows+9, []byte("x")); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("update of a missing key = %v, want ErrKeyNotFound", err)
		}
	}
	conflict := func(s *Session) {
		t.Helper()
		if err := b.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Read(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(1, 1, []byte("x")); !errors.Is(err, ErrLockConflict) {
			t.Fatalf("update of a read-locked key = %v, want ErrLockConflict", err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	readThenMissing := func(s *Session) {
		t.Helper()
		if _, _, err := s.Read(1, 2); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(1, rows+9); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("delete of a missing key = %v, want ErrKeyNotFound", err)
		}
	}
	refusedPatch := func(s *Session) {
		t.Helper()
		refused := errors.New("refused")
		if err := s.Patch(1, 2, func([]byte) ([]byte, error) { return nil, refused }); !errors.Is(err, refused) {
			t.Fatalf("refused patch = %v, want its own error", err)
		}
	}
	wroteThenMissing := func(s *Session) {
		t.Helper()
		if err := s.Update(1, 2, []byte("y")); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(1, rows+9, []byte("y")); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("update of a missing key = %v, want ErrKeyNotFound", err)
		}
		if n := m.CommitStats().Writers; n != 1 {
			t.Fatalf("%d announced writers after a transaction that logged one update, want 1", n)
		}
	}
	wrote := func(s *Session) {
		t.Helper()
		if err := s.Update(1, 3, []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		op     func(*Session)
		logged bool
	}{
		{"missing key", missing, false},
		{"lock conflict", conflict, false},
		{"read then missing key", readThenMissing, false},
		{"refused patch", refusedPatch, false},
		{"missing key after a logged update", wroteThenMissing, true},
		{"update", wrote, true},
	} {
		for _, end := range []string{"commit", "abort"} {
			when := "after " + c.name + " then " + end
			if err := a.Begin(); err != nil {
				t.Fatal(err)
			}
			c.op(a)
			mark := markLog(m)
			var err error
			if end == "commit" {
				err = a.Commit()
			} else {
				err = a.Abort()
			}
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			requireNoWriters(t, m, when)
			if moved := markLog(m) != mark; moved != c.logged {
				t.Errorf("%s: log moved = %v, want %v", when, moved, c.logged)
			}
		}
	}
	if n := m.tc.locks.count(); n != 0 {
		t.Errorf("%d locks still held", n)
	}
}
