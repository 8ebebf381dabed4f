// The TC's transaction table, sharded so Begin/Commit from concurrent
// sessions never serialize behind each other — or behind data
// operations, which hold per-shard planes (session.go), not this lock.
// The single-threaded experiment path pays one uncontended mutex per
// table touch, which is noise there.

package tc

import (
	"sync"
	"sync/atomic"

	"logrec/internal/wal"
)

// txnTableShards is the number of hash shards in the transaction
// table. Like the lock table's sharding, this bounds mutex contention,
// not capacity.
const txnTableShards = 16

// txnTableShard is one hash shard: a mutex and the active transactions
// whose IDs hash here.
type txnTableShard struct {
	mu     sync.Mutex
	active map[wal.TxnID]*Txn
}

// txnTable allocates transaction IDs — in-memory handles, never logged,
// so a recovered TC may start again from 1 — and tracks active
// transactions.
type txnTable struct {
	// next is the last allocated transaction ID (monotonic).
	next   atomic.Uint64
	shards [txnTableShards]txnTableShard
}

func newTxnTable() *txnTable {
	tt := &txnTable{}
	for i := range tt.shards {
		tt.shards[i].active = make(map[wal.TxnID]*Txn)
	}
	return tt
}

func (tt *txnTable) allocate() wal.TxnID {
	return wal.TxnID(tt.next.Add(1))
}

func (tt *txnTable) shardOf(id wal.TxnID) *txnTableShard {
	return &tt.shards[uint64(id)%txnTableShards]
}

func (tt *txnTable) add(t *Txn) {
	sh := tt.shardOf(t.ID)
	sh.mu.Lock()
	sh.active[t.ID] = t
	sh.mu.Unlock()
}

// remove takes id out of the active table, running end first, when it
// is not nil, in the same critical section (see TC.logEnd).
func (tt *txnTable) remove(id wal.TxnID, end func()) {
	sh := tt.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if end != nil {
		end()
	}
	delete(sh.active, id)
}

func (tt *txnTable) has(id wal.TxnID) bool {
	sh := tt.shardOf(id)
	sh.mu.Lock()
	_, ok := sh.active[id]
	sh.mu.Unlock()
	return ok
}

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

// snapshot returns the active transactions at some point during the
// call. The checkpoint holds every shard plane while calling it, so no
// data record can land in the window where a shard has been visited but
// the EndCkptRec not yet written. Commits take no plane: TC.logEnd
// appends a transaction's end record and removes it under its shard's
// mutex, so a listed transaction's end record lies above the
// begin-checkpoint LSN, where the redo scan finds it.
func (tt *txnTable) snapshot() []*Txn {
	var out []*Txn
	for i := range tt.shards {
		sh := &tt.shards[i]
		sh.mu.Lock()
		for _, t := range sh.active {
			out = append(out, t)
		}
		sh.mu.Unlock()
	}
	return out
}

// counters is the TC's statistics, kept atomic because per-shard
// planes let operations on different shards update them concurrently.
// Stats() snapshots them into the exported plain struct.
type counters struct {
	begun       atomic.Int64
	committed   atomic.Int64
	aborted     atomic.Int64
	updates     atomic.Int64
	inserts     atomic.Int64
	deletes     atomic.Int64
	checkpoints atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Begun:       c.begun.Load(),
		Committed:   c.committed.Load(),
		Aborted:     c.aborted.Load(),
		Updates:     c.updates.Load(),
		Inserts:     c.inserts.Load(),
		Deletes:     c.deletes.Load(),
		Checkpoints: c.checkpoints.Load(),
	}
}
