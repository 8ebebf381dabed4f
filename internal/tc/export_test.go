package tc

import "logrec/internal/wal"

// SetEndAppendedHook installs fn between a transaction's end-record
// append and its removal from the active table (see TC.endAppended).
func SetEndAppendedHook(t *TC, fn func()) { t.endAppended = fn }

// count returns the number of locked resources.
func (lt *LockTable) count() int {
	n := 0
	for i := range lt.shards {
		sh := &lt.shards[i]
		sh.mu.Lock()
		n += len(sh.locks)
		sh.mu.Unlock()
	}
	return n
}

// heldBy returns how many locks txn currently holds.
func (lt *LockTable) heldBy(txn wal.TxnID) int {
	n := 0
	for i := range lt.shards {
		sh := &lt.shards[i]
		if sh.heldTxns.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		n += len(sh.held[txn])
		sh.mu.Unlock()
	}
	return n
}

// count returns the number of in-flight transactions.
func (tt *txnTable) count() int {
	n := 0
	for i := range tt.shards {
		sh := &tt.shards[i]
		sh.mu.Lock()
		n += len(sh.active)
		sh.mu.Unlock()
	}
	return n
}
