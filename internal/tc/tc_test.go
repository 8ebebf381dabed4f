package tc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/shard"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// newPair builds a TC over a real DC with a small loaded table.
func newPair(t *testing.T, rows int) (*TC, *dc.DC, *wal.Log) {
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
	return New(log, shard.Single(d)), d, log
}

func TestUpdateCommitVisible(t *testing.T) {
	tcx, d, _ := newPair(t, 100)
	txn := tcx.Begin()
	if err := tcx.Update(txn, 1, 5, []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Commit(txn); err != nil {
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
	tcx, d, log := newPair(t, 100)
	txn := tcx.Begin()
	if err := tcx.Update(txn, 1, 7, []byte("garbage-1")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Insert(txn, 1, 1000, []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Delete(txn, 1, 8); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Abort(txn); err != nil {
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
	tcx, d, log := newPair(t, 100)
	rows := []string{
		"init-000007+grown",
		"init-0000",
		"Xnit-0000",
		"Xnit-000Y",
		"Xnit-000Y",
		"a different row altogether",
	}
	txn := tcx.Begin()
	for _, row := range rows {
		if err := tcx.Update(txn, 1, 7, []byte(row)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tcx.Update(txn, 1, 8, []byte("init-00000X")); err != nil {
		t.Fatal(err)
	}
	end := log.EndLSN()
	if err := tcx.Abort(txn); err != nil {
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

func TestUpdateMissingKey(t *testing.T) {
	tcx, _, _ := newPair(t, 10)
	txn := tcx.Begin()
	if err := tcx.Update(txn, 1, 9999, []byte("x")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err = %v, want ErrKeyNotFound", err)
	}
}

func TestOpsOnEndedTxnFail(t *testing.T) {
	tcx, _, _ := newPair(t, 10)
	txn := tcx.Begin()
	if err := tcx.Commit(txn); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Update(txn, 1, 1, []byte("x")); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("update after commit: %v", err)
	}
	if err := tcx.Commit(txn); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tcx.Abort(txn); !errors.Is(err, ErrTxnNotActive) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestWriteConflictBetweenTxns(t *testing.T) {
	tcx, _, _ := newPair(t, 10)
	t1 := tcx.Begin()
	t2 := tcx.Begin()
	if err := tcx.Update(t1, 1, 3, []byte("t1")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Update(t2, 1, 3, []byte("t2")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting update: %v, want ErrLockConflict", err)
	}
	// Readers also blocked by the X lock.
	if _, _, err := tcx.Read(t2, 1, 3); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("conflicting read: %v", err)
	}
	// After t1 commits, t2 proceeds.
	if err := tcx.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Update(t2, 1, 3, []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Commit(t2); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReadersThenUpgrade(t *testing.T) {
	tcx, _, _ := newPair(t, 10)
	t1 := tcx.Begin()
	t2 := tcx.Begin()
	if _, _, err := tcx.Read(t1, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tcx.Read(t2, 1, 4); err != nil {
		t.Fatal(err)
	}
	// Upgrade blocked while another reader holds S.
	if err := tcx.Update(t1, 1, 4, []byte("x")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("upgrade with 2 readers: %v", err)
	}
	if err := tcx.Commit(t2); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades.
	if err := tcx.Update(t1, 1, 4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Commit(t1); err != nil {
		t.Fatal(err)
	}
}

func TestLocksReleasedOnCommitAndAbort(t *testing.T) {
	tcx, _, _ := newPair(t, 10)
	t1 := tcx.Begin()
	if err := tcx.Update(t1, 1, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Locks().HeldBy(t1.ID); got != 1 {
		t.Fatalf("held = %d", got)
	}
	if err := tcx.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Locks().Count(); got != 0 {
		t.Fatalf("locks remain after commit: %d", got)
	}
	t2 := tcx.Begin()
	if err := tcx.Update(t2, 1, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Abort(t2); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Locks().Count(); got != 0 {
		t.Fatalf("locks remain after abort: %d", got)
	}
}

func TestCommitForcesLogAndSendsEOSL(t *testing.T) {
	tcx, d, log := newPair(t, 10)
	txn := tcx.Begin()
	if err := tcx.Update(txn, 1, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := log.FlushedLSN()
	if err := tcx.Commit(txn); err != nil {
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
	tcx, d, log := newPair(t, 200)
	// Dirty some pages.
	for i := 0; i < 5; i++ {
		txn := tcx.Begin()
		for u := 0; u < 10; u++ {
			if err := tcx.Update(txn, 1, uint64(i*10+u), []byte(fmt.Sprintf("v-%d-%d", i, u))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tcx.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if d.Pool().DirtyCount() == 0 {
		t.Fatal("no dirty pages to checkpoint")
	}
	open := tcx.Begin()
	if err := tcx.Update(open, 1, 150, []byte("open-txn")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
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
	if err := tcx.Abort(open); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounting(t *testing.T) {
	tcx, _, _ := newPair(t, 50)
	txn := tcx.Begin()
	_ = tcx.Update(txn, 1, 1, []byte("a"))
	_ = tcx.Insert(txn, 1, 500, []byte("b"))
	_ = tcx.Delete(txn, 1, 2)
	_ = tcx.Commit(txn)
	txn2 := tcx.Begin()
	_ = tcx.Update(txn2, 1, 3, []byte("c"))
	_ = tcx.Abort(txn2)
	st := tcx.Stats()
	if st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 {
		t.Fatalf("txn stats = %+v", st)
	}
	if st.Updates != 2 || st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("op stats = %+v", st)
	}
}

func TestUpdateRecordCarriesActualPID(t *testing.T) {
	tcx, d, log := newPair(t, 100)
	txn := tcx.Begin()
	if err := tcx.Update(txn, 1, 42, []byte("pid-check")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Commit(txn); err != nil {
		t.Fatal(err)
	}
	wantPID, err := d.Tree().FindLeaf(42)
	if err != nil {
		t.Fatal(err)
	}
	sc := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
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

func TestReadRangeLocksMembers(t *testing.T) {
	tcx, _, _ := newPair(t, 100)
	t1 := tcx.Begin()
	rows, err := tcx.ReadRange(t1, 1, 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("range returned %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Key != uint64(10+i) {
			t.Fatalf("row %d key %d", i, r.Key)
		}
		if string(r.Val) != fmt.Sprintf("init-%06d", r.Key) {
			t.Fatalf("row %d value %q", i, r.Val)
		}
	}
	if got := tcx.Locks().HeldBy(t1.ID); got != 10 {
		t.Fatalf("held %d locks, want 10", got)
	}
	// Another transaction cannot write a member of the range.
	t2 := tcx.Begin()
	if err := tcx.Update(t2, 1, 15, []byte("x")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("update of S-locked member: %v", err)
	}
	// But can write outside it.
	if err := tcx.Update(t2, 1, 50, []byte("outside-range")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Commit(t2); err != nil {
		t.Fatal(err)
	}
}

func TestReadRangeConflictAborts(t *testing.T) {
	tcx, _, _ := newPair(t, 100)
	t1 := tcx.Begin()
	if err := tcx.Update(t1, 1, 15, []byte("held-exclusively")); err != nil {
		t.Fatal(err)
	}
	t2 := tcx.Begin()
	if _, err := tcx.ReadRange(t2, 1, 10, 19); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("range over X-locked member: %v", err)
	}
	if err := tcx.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Abort(t2); err != nil {
		t.Fatal(err)
	}
}
