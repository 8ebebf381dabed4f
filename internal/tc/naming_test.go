package tc

import (
	"testing"

	"logrec/internal/wal"
)

// requireChain walks the backchain that ends at last down to its first
// record and checks that every record on it names the transaction by
// that first record's LSN, the first record itself included. It returns
// the chain's records, newest first.
func requireChain(t *testing.T, log *wal.Log, last wal.LSN) []wal.Transactional {
	t.Helper()
	var chain []wal.Transactional
	var lsns []wal.LSN
	for at := last; at != wal.NilLSN; {
		rec, err := log.Get(at)
		if err != nil {
			t.Fatal(err)
		}
		tr, ok := rec.(wal.Transactional)
		if !ok {
			t.Fatalf("%v record at %v on a transaction's backchain", rec.Type(), at)
		}
		chain, lsns = append(chain, tr), append(lsns, at)
		at = tr.Prev()
	}
	first := wal.TxnID(lsns[len(lsns)-1])
	for i, tr := range chain {
		if tr.Txn() != first {
			t.Errorf("%v record at %v names txn %d, want its first record's LSN %d", tr.Type(), lsns[i], tr.Txn(), first)
		}
	}
	return chain
}

// countTypes tallies a chain's records by type.
func countTypes(chain []wal.Transactional) map[wal.Type]int {
	n := map[wal.Type]int{}
	for _, tr := range chain {
		n[tr.Type()]++
	}
	return n
}

// TestReadOnlyTxnLogsNothing: a transaction that only reads has no first
// record, so it has no name in the log and appends nothing, whether it
// commits or aborts.
func TestReadOnlyTxnLogsNothing(t *testing.T) {
	tcx, _, log := newPair(t, 50)
	end := log.EndLSN()
	for _, finish := range []func(*Txn) error{tcx.Commit, tcx.Abort} {
		txn := tcx.Begin()
		if _, _, err := tcx.Read(txn, 1, 7); err != nil {
			t.Fatal(err)
		}
		if err := finish(txn); err != nil {
			t.Fatal(err)
		}
		if txn.FirstLSN() != wal.NilLSN || log.EndLSN() != end {
			t.Fatalf("a read-only transaction logged [%v, %v)", end, log.EndLSN())
		}
	}
}

// TestRolledBackTxnNamedByFirstRecord: the record that opens a
// transaction is named by its own LSN, and every later record — its
// CLRs and abort record included — by that LSN, on the single-threaded
// path and through a session alike.
func TestRolledBackTxnNamedByFirstRecord(t *testing.T) {
	tcx, _, log := newPair(t, 50)
	// Another transaction logs first, so names and handles differ.
	other := tcx.Begin()
	if err := tcx.Update(other, 1, 40, []byte("other")); err != nil {
		t.Fatal(err)
	}
	txn := tcx.Begin()
	for _, k := range []uint64{3, 4, 5} {
		if err := tcx.Update(txn, 1, k, []byte("rolled-back")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tcx.Insert(txn, 1, 1000, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Delete(txn, 1, 6); err != nil {
		t.Fatal(err)
	}
	first := txn.FirstLSN()
	if err := tcx.Abort(txn); err != nil {
		t.Fatal(err)
	}
	chain := requireChain(t, log, txn.LastLSN())
	if got := countTypes(chain); got[wal.TypeCLR] != 5 || got[wal.TypeAbort] != 1 || len(chain) != 11 {
		t.Fatalf("rolled-back chain holds %v, want 5 operations, 5 CLRs and an abort", got)
	}
	if bottom := chain[len(chain)-1]; bottom.Txn() != wal.TxnID(first) || bottom.Prev() != wal.NilLSN {
		t.Fatalf("first record names txn %d with prev %v, want its own LSN %v", bottom.Txn(), bottom.Prev(), first)
	}
	if err := tcx.Commit(other); err != nil {
		t.Fatal(err)
	}
	requireChain(t, log, other.LastLSN())

	m := newShardedMgr(t, 2, 64)
	s := m.NewSession()
	for _, end := range []func() error{s.Commit, s.Abort} {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{10, 50} { // one key on each shard
			if err := s.Update(1, k, []byte("via-session")); err != nil {
				t.Fatal(err)
			}
		}
		txn := s.Txn()
		if err := end(); err != nil {
			t.Fatal(err)
		}
		if chain := requireChain(t, m.tc.log, txn.LastLSN()); len(chain) < 3 {
			t.Fatalf("session chain of %d records", len(chain))
		}
	}
}

// TestSplitRangeTxnNamedByFirstRecord: a range migration is one
// transaction, and its ShardMapRec and commit name it by its first row
// move.
func TestSplitRangeTxnNamedByFirstRecord(t *testing.T) {
	m := newShardedMgr(t, 2, 64)
	if err := m.SplitRange(1, 16, 1); err != nil {
		t.Fatal(err)
	}
	var commit wal.LSN
	sc := m.tc.log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if rec.Type() == wal.TypeCommit {
			commit = lsn
		}
	}
	chain := requireChain(t, m.tc.log, commit)
	if got := countTypes(chain); got[wal.TypeShardMap] != 1 || got[wal.TypeDelete] != 16 || got[wal.TypeInsert] != 16 {
		t.Fatalf("migration chain holds %v, want 16 row moves and a ShardMapRec", got)
	}
}
