package core

import (
	"logrec/internal/wal"
)

// txnTable is the transaction table one forward scan rebuilds — crash
// recovery's pass 1 and a standby's continuous catch-up alike: the
// transactions in flight at the scan's position, each with the first and
// last record the scan has seen of it. A commit or abort record removes
// its transaction, so the table is bounded by the in-flight set, not the
// window's length, and whatever is left when the scan ends is the losers
// the undo pass rolls back. Recovery seeds it from the end-checkpoint
// record's active list, so a loser whose records all precede the scan
// start is still found.
type txnTable struct {
	live map[wal.TxnID]txnSpan
}

// txnSpan is one in-flight transaction's scanned records. first is
// NilLSN for an entry seeded from a checkpoint: its first record lies
// below the scan.
type txnSpan struct {
	first, last wal.LSN
}

func newTxnTable() *txnTable {
	return &txnTable{live: make(map[wal.TxnID]txnSpan)}
}

// seed installs the active-transaction table from an end-checkpoint
// record. TC.Checkpoint lists only transactions that have logged; an
// entry with no last record has nothing to undo and must not become a
// loser.
func (t *txnTable) seed(active []wal.ActiveTxn) {
	for _, a := range active {
		if a.LastLSN == wal.NilLSN {
			continue
		}
		if e := t.live[a.TxnID]; a.LastLSN > e.last {
			e.last = a.LastLSN
			t.live[a.TxnID] = e
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
	e, seen := t.live[id]
	if typ := rec.Type(); typ == wal.TypeCommit || typ == wal.TypeAbort {
		delete(t.live, id)
		return
	}
	if !seen {
		e.first = lsn
	}
	e.last = max(e.last, lsn)
	t.live[id] = e
}

// oldestFirst returns the lowest first LSN among the in-flight
// transactions (NilLSN when there is none), skipping seeded entries.
func (t *txnTable) oldestFirst() wal.LSN {
	oldest := wal.NilLSN
	for _, e := range t.live {
		if e.first != wal.NilLSN && (oldest == wal.NilLSN || e.first < oldest) {
			oldest = e.first
		}
	}
	return oldest
}

// losers returns the transactions requiring undo — the in-flight ones —
// keyed to their most recent LSN.
func (t *txnTable) losers() map[wal.TxnID]wal.LSN {
	out := make(map[wal.TxnID]wal.LSN, len(t.live))
	for id, e := range t.live {
		out[id] = e.last
	}
	return out
}
