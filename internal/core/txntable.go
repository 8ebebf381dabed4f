package core

import (
	"logrec/internal/wal"
)

// txnTable reconstructs the transaction table during recovery scans:
// which transactions have records in the redo window, their most recent
// LSN, and whether they terminated. Transactions still open at the end
// of the scan are the losers the undo pass rolls back. The table is
// seeded from the end-checkpoint record's active-transaction list so
// losers whose records all precede the redo scan start are still found.
type txnTable struct {
	last map[wal.TxnID]wal.LSN
	// first is each transaction's earliest record the scan has seen —
	// the bottom of its backchain when the scan started before the
	// transaction did, which is how a standby's replayer (whose scan
	// starts with the stream) bounds what undo could still read.
	first map[wal.TxnID]wal.LSN
	ended map[wal.TxnID]bool
	// won marks transactions that ended with a commit record —
	// route-change replay applies only committed migrations.
	won map[wal.TxnID]bool
}

func newTxnTable() *txnTable {
	return &txnTable{
		last:  make(map[wal.TxnID]wal.LSN),
		first: make(map[wal.TxnID]wal.LSN),
		ended: make(map[wal.TxnID]bool),
		won:   make(map[wal.TxnID]bool),
	}
}

// committed reports whether id's commit record is in the scanned log.
func (t *txnTable) committed(id wal.TxnID) bool { return t.won[id] }

// seed installs the active-transaction table from an end-checkpoint
// record. TC.Checkpoint lists only transactions that have logged; an
// entry with no last record has nothing to undo and must not become a
// loser.
func (t *txnTable) seed(active []wal.ActiveTxn) {
	for _, a := range active {
		if a.LastLSN == wal.NilLSN {
			continue
		}
		if a.LastLSN > t.last[a.TxnID] {
			t.last[a.TxnID] = a.LastLSN
		}
	}
}

// note observes one log record during a forward scan.
func (t *txnTable) note(rec wal.Record, lsn wal.LSN) {
	tr, ok := rec.(wal.Transactional)
	if !ok {
		return
	}
	id := tr.Txn()
	if id == 0 {
		return // system records
	}
	if lsn > t.last[id] {
		t.last[id] = lsn
	}
	if _, seen := t.first[id]; !seen {
		t.first[id] = lsn
	}
	switch rec.Type() {
	case wal.TypeCommit:
		t.ended[id] = true
		t.won[id] = true
	case wal.TypeAbort:
		t.ended[id] = true
	}
}

// prune drops a terminated transaction's entries. A continuous
// replayer calls it as commits and aborts stream past so the table
// stays bounded by the in-flight transaction set. One-shot recovery
// never prunes — finalRoutes needs the full won set.
func (t *txnTable) prune(id wal.TxnID) {
	delete(t.last, id)
	delete(t.first, id)
	delete(t.ended, id)
	delete(t.won, id)
}

// oldestFirst returns the lowest first-seen LSN among the transactions
// in the table (NilLSN when it is empty). On a pruning replayer those
// are exactly the in-flight ones.
func (t *txnTable) oldestFirst() wal.LSN {
	oldest := wal.NilLSN
	for _, lsn := range t.first {
		if oldest == wal.NilLSN || lsn < oldest {
			oldest = lsn
		}
	}
	return oldest
}

// losers returns the transactions requiring undo: seen but not ended,
// keyed to their most recent LSN.
func (t *txnTable) losers() map[wal.TxnID]wal.LSN {
	out := make(map[wal.TxnID]wal.LSN)
	for id, lsn := range t.last {
		if !t.ended[id] {
			out[id] = lsn
		}
	}
	return out
}
