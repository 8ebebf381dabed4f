package tc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logrec/internal/wal"
)

// LockMode is the requested access mode.
type LockMode int

// Lock modes.
const (
	LockShared LockMode = iota
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

type lockState struct {
	mode    LockMode
	holders map[wal.TxnID]struct{}
}

// lockShards is the number of hash shards in the lock table. Sharding
// cuts mutex contention when many sessions acquire locks concurrently;
// 64 shards keep the per-commit release sweep cheap while making
// same-shard collisions rare at realistic session counts.
const lockShards = 64

// lockShard is one hash shard: an independently locked slice of the
// lock space with its own per-transaction held lists. heldTxns counts
// transactions with entries in held; ReleaseAll reads it to
// skip (without locking) shards where no transaction holds anything.
type lockShard struct {
	mu       sync.Mutex
	locks    map[uint64]*lockState
	held     map[wal.TxnID][]uint64
	heldTxns atomic.Int64
}

// LockTable is a strict two-phase-locking lock manager over logical
// record identities, sharded by hash of the key. A row's key is its
// whole identity: the engine has one table, which the session checks
// before it locks, and Deuteronomy's TC locks without location
// information (§1.1), so no page IDs appear here either. Locks are held
// until commit or abort. Safe for concurrent use.
type LockTable struct {
	shards [lockShards]lockShard
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	lt := &LockTable{}
	for i := range lt.shards {
		lt.shards[i].locks = make(map[uint64]*lockState)
		lt.shards[i].held = make(map[wal.TxnID][]uint64)
	}
	return lt
}

// shardOf hashes a key onto a shard (Fibonacci hashing).
func (lt *LockTable) shardOf(key uint64) *lockShard {
	return &lt.shards[(key*0x9E3779B97F4A7C15)>>(64-6)] // top 6 bits → 64 shards
}

// Acquire is lock for callers that still name the table; the table is
// not part of the lock key. It goes once benchmark/ stops calling it
// (ROADMAP's knob audit).
func (lt *LockTable) Acquire(txn wal.TxnID, _ wal.TableID, key uint64, mode LockMode) error {
	return lt.lock(txn, key, mode)
}

// lock grants txn a lock on key in the requested mode, upgrading S→X
// when txn is the sole holder. It returns ErrLockConflict when another
// transaction holds an incompatible lock.
func (lt *LockTable) lock(txn wal.TxnID, k uint64, mode LockMode) error {
	sh := lt.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.locks[k]
	if !ok {
		sh.locks[k] = &lockState{mode: mode, holders: map[wal.TxnID]struct{}{txn: {}}}
		sh.noteHeld(txn, k)
		return nil
	}
	if _, holds := st.holders[txn]; holds {
		if mode == LockExclusive && st.mode == LockShared {
			if len(st.holders) > 1 {
				return fmt.Errorf("%w: txn %d upgrade on key %d blocked by %d other readers",
					ErrLockConflict, txn, k, len(st.holders)-1)
			}
			st.mode = LockExclusive
		}
		return nil
	}
	if st.mode == LockShared && mode == LockShared {
		st.holders[txn] = struct{}{}
		sh.noteHeld(txn, k)
		return nil
	}
	return fmt.Errorf("%w: txn %d wants %v on key %d held %v by %d txn(s)",
		ErrLockConflict, txn, mode, k, st.mode, len(st.holders))
}

// noteHeld appends k to txn's held list; caller holds sh.mu.
func (sh *lockShard) noteHeld(txn wal.TxnID, k uint64) {
	if _, ok := sh.held[txn]; !ok {
		sh.heldTxns.Add(1)
	}
	sh.held[txn] = append(sh.held[txn], k)
}

// ReleaseAll drops every lock txn holds (commit/abort). Shards where no
// transaction holds anything are skipped without locking: the releasing
// goroutine's own acquires happened-before this call, so heldTxns == 0
// proves txn holds nothing there.
func (lt *LockTable) ReleaseAll(txn wal.TxnID) {
	for i := range lt.shards {
		sh := &lt.shards[i]
		if sh.heldTxns.Load() == 0 {
			continue
		}
		sh.mu.Lock()
		keys, ok := sh.held[txn]
		if ok {
			for _, k := range keys {
				st, ok := sh.locks[k]
				if !ok {
					continue
				}
				delete(st.holders, txn)
				if len(st.holders) == 0 {
					delete(sh.locks, k)
				}
			}
			delete(sh.held, txn)
			sh.heldTxns.Add(-1)
		}
		sh.mu.Unlock()
	}
}
