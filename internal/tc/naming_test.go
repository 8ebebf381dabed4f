package tc

import (
	"testing"

	"logrec/internal/wal"
)

// chained is a record on a transaction's backward chain: every
// transactional record but the commit or abort that ends it.
type chained interface{ Prev() wal.LSN }

// requireChain checks the transaction that the commit or abort record at
// end closes. Walking the log from the transaction's name — its first
// record's LSN — to end, every record that names it lies on one
// backchain: the first points at nothing and each later one but the end
// record, which points nowhere, at the one before. It returns the
// records, newest first, the end record included.
func requireChain(t *testing.T, log *wal.Log, end wal.LSN) []wal.Transactional {
	t.Helper()
	rec, err := log.Get(end)
	if err != nil {
		t.Fatal(err)
	}
	closing, ok := rec.(wal.Transactional)
	if _, onChain := rec.(chained); !ok || onChain {
		t.Fatalf("%v record at %v ends no transaction", rec.Type(), end)
	}
	name := closing.Txn()
	log.Flush()
	var chain []wal.Transactional
	prev := wal.NilLSN
	sc := log.NewScanner(wal.LSN(name), nil, wal.ScanCost{})
	defer sc.Close()
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || lsn > end {
			break
		}
		tr, isTxn := rec.(wal.Transactional)
		if !isTxn || tr.Txn() != name {
			continue
		}
		if prev == wal.NilLSN && lsn != wal.LSN(name) {
			t.Fatalf("txn %d's first record is at %v, not at its name", name, lsn)
		}
		if c, ok := rec.(chained); ok && c.Prev() != prev {
			t.Errorf("%v record at %v points back to %v, its transaction's record before it is at %v", rec.Type(), lsn, c.Prev(), prev)
		}
		chain = append([]wal.Transactional{tr}, chain...)
		prev = lsn
	}
	if prev != end {
		t.Fatalf("the walk from txn %d's first record ended at %v, not at its end record at %v", name, prev, end)
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
	m, _, log := newPair(t, 50)
	end := log.EndLSN()
	s := m.NewSession()
	for _, finish := range []func() error{s.Commit, s.Abort} {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		txn := s.Txn()
		if _, _, err := s.Read(1, 7); err != nil {
			t.Fatal(err)
		}
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		if txn.FirstLSN() != wal.NilLSN || log.EndLSN() != end {
			t.Fatalf("a read-only transaction logged [%v, %v)", end, log.EndLSN())
		}
	}
}

// TestRolledBackTxnNamedByFirstRecord: the record that opens a
// transaction is named by its own LSN, and every later record — its
// CLRs and abort record included — by that LSN, on one shard and
// across two alike.
func TestRolledBackTxnNamedByFirstRecord(t *testing.T) {
	m, _, log := newPair(t, 50)
	// Another transaction logs first, so names and handles differ.
	other := begin(t, m)
	if err := other.Update(1, 40, []byte("other")); err != nil {
		t.Fatal(err)
	}
	s := begin(t, m)
	txn := s.Txn()
	for _, k := range []uint64{3, 4, 5} {
		if err := s.Update(1, k, []byte("rolled-back")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert(1, 1000, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1, 6); err != nil {
		t.Fatal(err)
	}
	first := txn.FirstLSN()
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	chain := requireChain(t, log, txn.LastLSN())
	if got := countTypes(chain); got[wal.TypeCLR] != 5 || got[wal.TypeAbort] != 1 || len(chain) != 11 {
		t.Fatalf("rolled-back chain holds %v, want 5 operations, 5 CLRs and an abort", got)
	}
	if bottom := chain[len(chain)-1]; bottom.Txn() != wal.TxnID(first) {
		t.Fatalf("first record names txn %d, want its own LSN %v", bottom.Txn(), first)
	}
	otherTxn := other.Txn()
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	requireChain(t, log, otherTxn.LastLSN())

	m = newShardedMgr(t, 2, 64)
	s = m.NewSession()
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
