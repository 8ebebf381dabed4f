// Batched session operations: group N point ops into one plane
// round-trip. A multi-op transaction built one call at a time pays a
// route-lookup, plane-acquire and plane-release per op; ApplyBatch
// pays the logical-lock cost per op but acquires the deduplicated set
// of owning planes exactly once, in ascending shard-ID order — the
// same discipline as every other multi-plane path, so batches compose
// with migrations and checkpoints without new deadlock cases.
package tc

import (
	"logrec/internal/wal"
)

// BatchKind selects what a BatchOp does.
type BatchKind int

// Batch operation kinds.
const (
	// BatchRead reads Key; the value (or nil if absent) lands in the
	// result slot.
	BatchRead BatchKind = iota
	// BatchUpdate replaces the value under Key with Val.
	BatchUpdate
	// BatchInsert adds a new row Key → Val.
	BatchInsert
	// BatchDelete removes the row under Key.
	BatchDelete
)

func (k BatchKind) String() string {
	switch k {
	case BatchRead:
		return "read"
	case BatchUpdate:
		return "update"
	case BatchInsert:
		return "insert"
	case BatchDelete:
		return "delete"
	}
	return "unknown"
}

// BatchOp is one operation in a batch. Val is used by update and
// insert and ignored otherwise.
type BatchOp struct {
	// Kind selects the operation.
	Kind BatchKind
	// Table is the table the op targets.
	Table wal.TableID
	// Key is the row key.
	Key uint64
	// Val is the new value for update and insert ops.
	Val []byte
}

// ApplyBatch runs ops in order inside the session's active
// transaction, acquiring every logical lock first (shared for reads,
// exclusive for writes; a conflict aborts the batch before any plane
// is taken), then the deduplicated owning planes once. The result
// slice is parallel to ops: read slots hold a copy of the value (nil
// when the key is absent), write slots stay nil. On error the batch
// stops at the failing op; earlier writes remain pending in the
// transaction, and the caller resolves them with Commit or Abort as
// usual.
//
// Like lockPlane, the key→shard routes are revalidated under the
// planes: if a concurrent migration moved any batched key to a shard
// outside the locked set, the planes are dropped and the batch
// re-routes and retries.
func (s *Session) ApplyBatch(ops []BatchOp) ([][]byte, error) {
	if err := s.checkActive(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, nil
	}
	m := s.mgr
	writes := false
	for _, op := range ops {
		mode := LockExclusive
		if op.Kind == BatchRead {
			mode = LockShared
		} else {
			writes = true
		}
		if err := m.tc.locks.Acquire(s.txn.ID, op.Table, op.Key, mode); err != nil {
			return nil, err
		}
	}
	if writes {
		s.announce()
	}
	owners := make([]wal.ShardID, len(ops))
retry:
	for {
		ids := make([]wal.ShardID, len(ops))
		for i, op := range ops {
			ids[i] = m.tc.dc.LocateHit(op.Key)
		}
		release := m.lockPlanes(ids)
		locked := make(map[wal.ShardID]bool, len(ids))
		for _, id := range ids {
			locked[id] = true
		}
		for i, op := range ops {
			owners[i] = m.tc.dc.Locate(op.Key)
			if !locked[owners[i]] {
				release()
				continue retry
			}
		}
		results := make([][]byte, len(ops))
		for i, op := range ops {
			var err error
			switch op.Kind {
			case BatchRead:
				var v []byte
				var found bool
				v, found, err = m.tc.dc.At(owners[i]).Read(op.Table, op.Key)
				if found {
					results[i] = v
				}
			case BatchUpdate:
				s.note(owners[i])
				err = m.tc.applyUpdateAt(owners[i], s.txn, op.Table, op.Key, op.Val)
			case BatchInsert:
				s.note(owners[i])
				err = m.tc.applyInsertAt(owners[i], s.txn, op.Table, op.Key, op.Val)
			case BatchDelete:
				s.note(owners[i])
				err = m.tc.applyDeleteAt(owners[i], s.txn, op.Table, op.Key)
			}
			if err != nil {
				s.settle()
				release()
				return nil, err
			}
		}
		s.settle()
		release()
		return results, nil
	}
}
