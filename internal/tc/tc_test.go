package tc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/shard"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// newPair builds a session manager over a TC over a real DC with a
// small loaded table.
func newPair(t *testing.T, rows int) (*SessionManager, *dc.DC, *wal.Log) {
	t.Helper()
	clock := &sim.Clock{}
	disk, err := storage.New(clock, storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog()
	d, err := dc.New(clock, disk, log, 256, 1, 0, dc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.BulkLoad(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("init-%06d", k))
	}); err != nil {
		t.Fatal(err)
	}
	d.StartLogging()
	set := shard.Single(d)
	return NewSessionManager(New(log, set), wal.NewGroupCommitter(log, set.EOSL, 0)), d, log
}

// begin opens a transaction on a new session of m.
func begin(t *testing.T, m *SessionManager) *Session {
	t.Helper()
	s := m.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUpdateCommitVisible(t *testing.T) {
	m, d, _ := newPair(t, 100)
	s := begin(t, m)
	txn := s.Txn()
	if err := s.Update(1, 5, []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	v, found, err := d.Read(1, 5)
	if err != nil || !found || !bytes.Equal(v, []byte("new-value")) {
		t.Fatalf("read after commit: %q %v %v", v, found, err)
	}
	if txn.Status() != StatusCommitted {
		t.Fatalf("status = %v", txn.Status())
	}
}

func TestAbortRollsBackAllOps(t *testing.T) {
	m, d, log := newPair(t, 100)
	s := begin(t, m)
	if err := s.Update(1, 7, []byte("garbage-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 1000, []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	// Update restored.
	v, found, _ := d.Read(1, 7)
	if !found || !bytes.Equal(v, []byte("init-000007")) {
		t.Fatalf("key 7 = %q, want original", v)
	}
	// Insert removed.
	if _, found, _ := d.Read(1, 1000); found {
		t.Fatal("inserted key survived abort")
	}
	// Delete re-inserted.
	v, found, _ = d.Read(1, 8)
	if !found || !bytes.Equal(v, []byte("init-000008")) {
		t.Fatalf("key 8 = %q, want restored", v)
	}
	// CLRs and the abort record are on the log.
	if log.AppendCount(wal.TypeCLR) != 3 {
		t.Fatalf("CLRs = %d, want 3", log.AppendCount(wal.TypeCLR))
	}
	if log.AppendCount(wal.TypeAbort) != 1 {
		t.Fatal("no abort record")
	}
}

// TestAbortRestoresEveryPatchShape: an update record holds only the
// bytes that changed, so rollback rebuilds each before-image from the
// row as it stands. One transaction updates one key through every shape
// in turn — grow, shrink, first byte, last byte, nothing, the whole row
// — and a second key once; abort must walk the patches back in order,
// and the CLRs it logs must be patches too (the same Skip/Tail, the
// before-middle), replayable on their own.
func TestAbortRestoresEveryPatchShape(t *testing.T) {
	m, d, log := newPair(t, 100)
	rows := []string{
		"init-000007+grown",
		"init-0000",
		"Xnit-0000",
		"Xnit-000Y",
		"Xnit-000Y",
		"a different row altogether",
	}
	s := begin(t, m)
	for _, row := range rows {
		if err := s.Update(1, 7, []byte(row)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Update(1, 8, []byte("init-00000X")); err != nil {
		t.Fatal(err)
	}
	end := log.EndLSN()
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[uint64]string{7: "init-000007", 8: "init-000008"} {
		if v, found, _ := d.Read(1, key); !found || string(v) != want {
			t.Fatalf("key %d = %q after abort, want %q", key, v, want)
		}
	}

	// Replay the CLRs alone over the rows the transaction left: each
	// must fit the row the one before it produced.
	state := map[uint64][]byte{7: []byte(rows[len(rows)-1]), 8: []byte("init-00000X")}
	clrs := 0
	log.Flush() // a rollback does not force its CLRs
	sc := log.NewScanner(end, nil, wal.ScanCost{})
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		clr, isCLR := rec.(*wal.CLRRec)
		if !isCLR {
			continue
		}
		clrs++
		if clr.Kind != wal.CLRUndoUpdate {
			t.Fatalf("CLR at %v has kind %d", lsn, clr.Kind)
		}
		// The one-byte change's CLR carries one byte, not the row.
		if clr.KeyVal == 8 && (clr.Skip != 10 || clr.Tail != 0 || string(clr.RestoreVal) != "8") {
			t.Fatalf("CLR of the one-byte update: skip %d tail %d restore %q", clr.Skip, clr.Tail, clr.RestoreVal)
		}
		if state[clr.KeyVal], err = clr.After(state[clr.KeyVal]); err != nil {
			t.Fatalf("CLR at %v: %v", lsn, err)
		}
	}
	if clrs != len(rows)+1 {
		t.Fatalf("%d CLRs, want %d", clrs, len(rows)+1)
	}
	if string(state[7]) != "init-000007" || string(state[8]) != "init-000008" {
		t.Fatalf("CLR replay leaves %q and %q", state[7], state[8])
	}
}

// rowChanges are the forward row changes that meet an existing row.
var rowChanges = []struct {
	name string
	run  func(s *Session, key uint64) error
}{
	{"Update", func(s *Session, key uint64) error { return s.Update(1, key, []byte("changed")) }},
	{"Patch", func(s *Session, key uint64) error {
		return s.Patch(1, key, func(cur []byte) ([]byte, error) {
			row := append([]byte(nil), cur...)
			row[0] = 'P'
			return row, nil
		})
	}},
	{"Delete", func(s *Session, key uint64) error { return s.Delete(1, key) }},
}

// TestUpdateMissingKey: an update, patch or delete of a key the table
// does not hold fails with ErrKeyNotFound and logs nothing — so the
// transaction commits without a record.
func TestUpdateMissingKey(t *testing.T) {
	m := newShardedMgr(t, 1, 10)
	s := m.NewSession()
	missing := uint64(9000)
	for _, op := range rowChanges {
		t.Run("Session/"+op.name, func(t *testing.T) {
			missing++ // a case that fails keeps its lock
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			txn := s.Txn()
			records := m.tc.log.Records()
			if err := op.run(s, missing); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("err = %v, want ErrKeyNotFound", err)
			}
			if got := m.tc.log.Records(); got != records {
				t.Fatalf("%d records logged by a miss", got-records)
			}
			if txn.FirstLSN() != wal.NilLSN {
				t.Fatalf("the transaction names a first record %v after a miss", txn.FirstLSN())
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := m.tc.log.Records(); got != records {
				t.Fatalf("the commit after a miss appended %d records, want 0", got-records)
			}
		})
	}
}

// TestRowChangeTakesOneDescent: a forward update, patch or delete finds
// its row and changes it in one root-to-leaf pass — as many pool lookups
// as the tree is high.
func TestRowChangeTakesOneDescent(t *testing.T) {
	m := newShardedMgr(t, 1, 2000)
	d := m.tc.dc.At(0)
	height := int64(d.Tree().Meta().Height)
	if height < 2 {
		t.Fatalf("tree height %d: the test needs an internal level to tell one pass from two", height)
	}
	lookups := func() int64 { st := d.Pool().Stats(); return st.Hits + st.Misses }
	s := m.NewSession()
	key := uint64(0)
	for _, op := range rowChanges {
		t.Run("Session/"+op.name, func(t *testing.T) {
			key += 100
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			before := lookups()
			if err := op.run(s, key); err != nil {
				t.Fatal(err)
			}
			if got := lookups() - before; got != height {
				t.Fatalf("%d pool lookups, want %d: one pass down a tree of height %d", got, height, height)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpsOnEndedTxnFail(t *testing.T) {
	m, _, _ := newPair(t, 10)
	s := begin(t, m)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(1, 1, []byte("x")); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("update after commit: %v", err)
	}
	if _, _, err := s.Read(1, 1); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("read after commit: %v", err)
	}
	if err := s.Commit(); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := s.Abort(); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("abort after commit: %v", err)
	}
}

// TestUnknownTableRefusedBeforeLock: the session is where a table is
// checked, so an operation on a table the engine does not hold fails
// naming both tables before it takes a lock, an announcement or a
// plane, logs nothing, and leaves its transaction able to go on.
func TestUnknownTableRefusedBeforeLock(t *testing.T) {
	m, d, log := newPair(t, 10)
	s := begin(t, m)
	end := log.EndLSN()
	ops := map[string]func() error{
		"read":   func() error { _, _, err := s.Read(7, 1); return err },
		"scan":   func() error { return s.ScanRange(7, 0, 9, nil, func(uint64, []byte) error { return nil }) },
		"update": func() error { return s.Update(7, 1, []byte("x")) },
		"patch":  func() error { return s.Patch(7, 1, func(cur []byte) ([]byte, error) { return cur, nil }) },
		"insert": func() error { return s.Insert(7, 100, []byte("x")) },
		"delete": func() error { return s.Delete(7, 1) },
	}
	for name, op := range ops {
		err := op()
		if err == nil || !strings.Contains(err.Error(), "table 7") || !strings.Contains(err.Error(), "table 1") {
			t.Fatalf("%s on table 7: %v, want an error naming tables 7 and 1", name, err)
		}
	}
	if got := m.tc.Locks().HeldBy(s.Txn().ID); got != 0 {
		t.Fatalf("refused operations hold %d locks", got)
	}
	if s.announced {
		t.Fatal("a refused write announced a writer")
	}
	if ps := m.PlaneStats(); ps[0].Ops != 0 {
		t.Fatalf("refused operations took the plane %d times", ps[0].Ops)
	}
	if log.EndLSN() != end {
		t.Fatalf("refused operations logged %d bytes", log.EndLSN()-end)
	}
	if err := s.Update(1, 1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, err := d.Read(1, 1); err != nil || string(v) != "after" {
		t.Fatalf("row after commit: %q, %v", v, err)
	}
}

func TestWriteConflictBetweenTxns(t *testing.T) {
	m, _, _ := newPair(t, 10)
	t1, t2 := begin(t, m), begin(t, m)
	if err := t1.Update(1, 3, []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(1, 3, []byte("t2")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting update: %v, want ErrLockConflict", err)
	}
	// Readers also blocked by the X lock.
	if _, _, err := t2.Read(1, 3); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting read: %v", err)
	}
	// After t1 commits, t2 proceeds.
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(1, 3, []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReadersThenUpgrade(t *testing.T) {
	m, _, _ := newPair(t, 10)
	t1, t2 := begin(t, m), begin(t, m)
	if _, _, err := t1.Read(1, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := t2.Read(1, 4); err != nil {
		t.Fatal(err)
	}
	// Upgrade blocked while another reader holds S.
	if err := t1.Update(1, 4, []byte("x")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("upgrade with 2 readers: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades.
	if err := t1.Update(1, 4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLocksReleasedOnCommitAndAbort(t *testing.T) {
	m, _, _ := newPair(t, 10)
	s := begin(t, m)
	if err := s.Update(1, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if got := m.tc.Locks().HeldBy(s.Txn().ID); got != 1 {
		t.Fatalf("held = %d", got)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := m.tc.Locks().Count(); got != 0 {
		t.Fatalf("locks remain after commit: %d", got)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(1, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := m.tc.Locks().Count(); got != 0 {
		t.Fatalf("locks remain after abort: %d", got)
	}
}

func TestCommitForcesLogAndSendsEOSL(t *testing.T) {
	m, d, log := newPair(t, 10)
	s := begin(t, m)
	if err := s.Update(1, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := log.FlushedLSN()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if log.FlushedLSN() <= before {
		t.Fatal("commit did not force the log")
	}
	if d.Pool().ELSN() != log.FlushedLSN() {
		t.Fatalf("DC eLSN %v != flushed %v (EOSL not sent)", d.Pool().ELSN(), log.FlushedLSN())
	}
}

func TestCheckpointProtocol(t *testing.T) {
	m, d, log := newPair(t, 200)
	// Dirty some pages.
	s := m.NewSession()
	for i := 0; i < 5; i++ {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 10; u++ {
			if err := s.Update(1, uint64(i*10+u), []byte(fmt.Sprintf("v-%d-%d", i, u))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Pool().DirtyCount() == 0 {
		t.Fatal("no dirty pages to checkpoint")
	}
	openS := begin(t, m)
	open := openS.Txn()
	if err := openS.Update(1, 150, []byte("open-txn")); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tcx := m.tc
	if tcx.LastEndCkptLSN() == wal.NilLSN {
		t.Fatal("master record not advanced")
	}
	// The end-checkpoint record names its begin record and carries the
	// open transaction.
	rec, err := log.Get(tcx.LastEndCkptLSN())
	if err != nil {
		t.Fatal(err)
	}
	end := rec.(*wal.EndCkptRec)
	if end.BeginLSN == wal.NilLSN {
		t.Fatal("end-ckpt lacks begin pointer")
	}
	b, err := log.Get(end.BeginLSN)
	if err != nil || b.Type() != wal.TypeBeginCkpt {
		t.Fatalf("begin pointer resolves to %v (%v)", b, err)
	}
	foundOpen := false
	for _, a := range end.Active {
		if a.TxnID == wal.TxnID(open.FirstLSN()) && a.LastLSN == open.LastLSN() {
			foundOpen = true
		}
	}
	if !foundOpen {
		t.Fatalf("active txn missing from end-ckpt record %+v: want it under its first LSN %v", end.Active, open.FirstLSN())
	}
	// RSSP flushed everything dirtied before the checkpoint: only the
	// open transaction's page (dirtied before bCkpt, but update 150 was
	// before the flip) — all pre-flip dirt must be gone.
	// The open txn's update happened before the checkpoint flip, so it
	// too was flushed; dirty count must be zero.
	if got := d.Pool().DirtyCount(); got != 0 {
		t.Fatalf("%d pages still dirty after checkpoint", got)
	}
	if err := openS.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	m, _, _ := newPair(t, 50)
	s := begin(t, m)
	_ = s.Update(1, 1, []byte("a"))
	_ = s.Insert(1, 500, []byte("b"))
	_ = s.Delete(1, 2)
	_ = s.Commit()
	_ = s.Begin()
	_ = s.Update(1, 3, []byte("c"))
	_ = s.Abort()
	st := m.tc.Stats()
	if st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 {
		t.Fatalf("txn stats = %+v", st)
	}
	if st.Updates != 2 || st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("op stats = %+v", st)
	}
}

func TestUpdateRecordCarriesActualPID(t *testing.T) {
	m, d, log := newPair(t, 100)
	s := begin(t, m)
	if err := s.Update(1, 42, []byte("pid-check")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	wantPID, err := d.Tree().FindLeaf(42)
	if err != nil {
		t.Fatal(err)
	}
	sc := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	defer sc.Close()
	for {
		rec, _, ok, serr := sc.Next()
		if serr != nil {
			t.Fatal(serr)
		}
		if !ok {
			break
		}
		if u, isU := rec.(*wal.UpdateRec); isU && u.KeyVal == 42 {
			if u.PageID != wantPID {
				t.Fatalf("logged PID %d, actual leaf %d", u.PageID, wantPID)
			}
			return
		}
	}
	t.Fatal("update record not found")
}

// TestReadRangeLocksMembers: Session.ScanRange S-locks every row it
// hands fn, and only those — a row its predicate rejects stays unlocked.
func TestReadRangeLocksMembers(t *testing.T) {
	m, _, _ := newPair(t, 100)
	t1 := begin(t, m)
	var keys []uint64
	odd := func(key uint64, _ []byte) bool { return key%2 == 1 }
	err := t1.ScanRange(1, 10, 19, odd, func(key uint64, val []byte) error {
		if string(val) != fmt.Sprintf("init-%06d", key) {
			t.Fatalf("key %d value %q", key, val)
		}
		keys = append(keys, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[11 13 15 17 19]" {
		t.Fatalf("scan emitted %v", keys)
	}
	if got := m.tc.Locks().HeldBy(t1.Txn().ID); got != 5 {
		t.Fatalf("held %d locks, want 5", got)
	}
	t2 := begin(t, m)
	// Another transaction cannot write an emitted row...
	if err := t2.Update(1, 15, []byte("x")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("update of S-locked member: %v", err)
	}
	// ...but can write a row the predicate rejected, and one outside
	// the range.
	for _, k := range []uint64{14, 50} {
		if err := t2.Update(1, k, []byte("unlocked")); err != nil {
			t.Fatalf("update of key %d: %v", k, err)
		}
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRangeConflictAborts: a scan that meets a row another
// transaction holds exclusively fails with ErrLockConflict.
func TestReadRangeConflictAborts(t *testing.T) {
	m, _, _ := newPair(t, 100)
	t1 := begin(t, m)
	if err := t1.Update(1, 15, []byte("held-exclusively")); err != nil {
		t.Fatal(err)
	}
	t2 := begin(t, m)
	err := t2.ScanRange(1, 10, 19, nil, func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrLockConflict) {
		t.Fatalf("range over X-locked member: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
}
