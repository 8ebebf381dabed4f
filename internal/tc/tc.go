// Package tc implements Deuteronomy's transactional component: it owns
// transactions, logical locking and logical logging, and drives the
// data components through the narrow interface of [10,12] — data
// operations identified by key (never page IDs; the engine has one
// table, which a session checks at its entry), plus the two
// recovery-preparation control operations of §4.1:
//
//	EOSL: the TC regularly tells each DC its end of stable log (eLSN);
//	      the DC uses it for the write-ahead-log protocol and as the
//	      TC-LSN of its ∆-log records.
//	RSSP: the TC's checkpoint: it names a redo-scan-start-point LSN and
//	      every DC must flush every page dirtied by operations at or
//	      before it, so the TC can start its redo scan there.
//
// The TC drives N range-partitioned DCs behind one shard.Set: data
// operations route by key, every log record is stamped with the shard
// it landed on (so undo and recovery can target that DC directly), and
// EOSL/RSSP broadcast to all shards. A single-DC engine is the N=1
// case of the same code path.
package tc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"logrec/internal/btree"
	"logrec/internal/shard"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// Status is a transaction's lifecycle state.
type Status int

// Transaction statuses.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// Txn is a transaction handle.
type Txn struct {
	// ID is the in-memory handle the lock table and the active-transaction
	// registry key the transaction by. It is never logged: a record names
	// its transaction by the transaction's first record (logName).
	ID     wal.TxnID
	status Status
	// last is the transaction's most recent log record. Atomic because
	// a fuzzy checkpoint reads it while the owning session writes it
	// (the checkpoint holds every shard plane, but commit/abort records
	// are appended without one).
	last atomic.Uint64
	// first is the transaction's first log record (NilLSN until it logs
	// one): the bottom of the backchain rollback and crash undo walk, so
	// the log must be retained from it while the transaction is active.
	// Atomic for the same reason as last.
	first atomic.Uint64
}

// LastLSN returns the transaction's most recent log record.
func (t *Txn) LastLSN() wal.LSN { return wal.LSN(t.last.Load()) }

// FirstLSN returns the transaction's first log record, NilLSN if it has
// logged nothing yet.
func (t *Txn) FirstLSN() wal.LSN { return wal.LSN(t.first.Load()) }

// logName is what t's next record names it by in the log: the LSN of
// its first record, or wal.OpensTxn while it has logged nothing, because
// the next record is that first one.
func (t *Txn) logName() wal.TxnID {
	if first := t.FirstLSN(); first != wal.NilLSN {
		return wal.TxnID(first)
	}
	return wal.OpensTxn
}

// setLastLSN advances the backchain head, noting the first record on
// the way. Only the goroutine driving the transaction calls it.
func (t *Txn) setLastLSN(lsn wal.LSN) {
	if t.first.Load() == 0 {
		t.first.Store(uint64(lsn))
	}
	t.last.Store(uint64(lsn))
}

// Stats counts TC activity. Updates, Inserts and Deletes count the rows
// sessions changed.
type Stats struct {
	Begun       int64
	Committed   int64
	Aborted     int64
	Updates     int64
	Inserts     int64
	Deletes     int64
	Checkpoints int64
}

// Appender abstracts log appends and forces so the concurrent session
// path can route every record — and every checkpoint/commit log force —
// through a wal.GroupCommitter (for batch accounting and a single EOSL
// publication per force); the default is the raw log.
type Appender interface {
	MustAppend(wal.Record) wal.LSN
	Flush() wal.LSN
}

// TC is the transactional component.
type TC struct {
	log   *wal.Log
	app   Appender
	dc    *shard.Set
	locks *LockTable

	// table is the one table the engine holds, the shards' trees' own;
	// a session refuses any other before it locks anything.
	table wal.TableID

	// txns is the transaction table: ID allocation plus the active set,
	// hash-sharded so sessions' Begin/Commit never serialize behind one
	// another or behind data operations.
	txns *txnTable

	// lastEndCkpt is the TC's master record: the LSN of the most recent
	// end-checkpoint record on the stable log. Recovery starts from the
	// begin-checkpoint it names (§3.2's penultimate checkpoint). It is
	// part of the crash-surviving state, like a boot block. Atomic so a
	// crash snapshot can read it while a checkpoint on another
	// goroutine advances it.
	lastEndCkpt atomic.Uint64
	// masterHook, when set, persists each master-record advance (the
	// file-backed engine writes it to a well-known file, the real
	// system's boot-block sector). The simulated engine leaves it nil:
	// there the master record survives in CrashState directly.
	masterHook func(wal.LSN) error
	// endAppended, when set, runs in logEnd between the end record's
	// append and the transaction's removal; tests park a committer
	// there. Nil in production.
	endAppended func()

	stats counters
}

// New creates a TC over the shared log and the shard set it drives.
func New(log *wal.Log, set *shard.Set) *TC {
	return &TC{
		log:   log,
		app:   log,
		dc:    set,
		locks: NewLockTable(),
		table: set.At(0).Tree().Meta().TableID,
		txns:  newTxnTable(),
	}
}

// SetAppender reroutes the TC's log appends (see Appender). The session
// layer installs the group committer here.
func (tc *TC) SetAppender(a Appender) { tc.app = a }

// Locks returns the lock table.
func (tc *TC) Locks() *LockTable { return tc.locks }

// Stats returns a snapshot of the counters.
func (tc *TC) Stats() Stats { return tc.stats.snapshot() }

// LastEndCkptLSN returns the master-record pointer to the latest
// completed checkpoint's end record.
func (tc *TC) LastEndCkptLSN() wal.LSN { return wal.LSN(tc.lastEndCkpt.Load()) }

// checkTable refuses every table but the engine's.
func (tc *TC) checkTable(table wal.TableID) error {
	if table != tc.table {
		return fmt.Errorf("tc: unknown table %d (the engine holds table %d)", table, tc.table)
	}
	return nil
}

// begin starts a transaction (Session.Begin).
func (tc *TC) begin() *Txn {
	t := &Txn{ID: tc.txns.allocate(), status: StatusActive}
	tc.txns.add(t)
	tc.stats.begun.Add(1)
	return t
}

// applyPatchAt rewrites the row under key on shard target to
// what patch returns for it, logging the change as an update record. The
// caller holds the X lock (sessions acquire it outside the shard planes
// so lock-table sharding pays off), and a session resolves the owner
// while locking its plane, so the operation runs on that shard even if
// the routing table moves meanwhile. It is one descent (dc.Patch): the
// patch meets the row, which is copied as the record's OldVal, and what
// patch returns is its NewVal. An error from patch is returned as is and
// logs nothing.
func (tc *TC) applyPatchAt(target wal.ShardID, t *Txn, key uint64, patch func(cur []byte) ([]byte, error)) error {
	var oldVal, newVal []byte
	err := tc.dc.At(target).Patch(key, func(cur []byte) ([]byte, error) {
		oldVal = append(oldVal[:0], cur...)
		var err error
		newVal, err = patch(cur)
		return newVal, err
	}, func(pid storage.PageID) wal.LSN {
		lsn := tc.app.MustAppend(&wal.UpdateRec{
			TxnID:   t.logName(),
			KeyVal:  key,
			OldVal:  oldVal,
			NewVal:  newVal,
			PageID:  pid,
			ShardID: target,
			PrevLSN: t.LastLSN(),
		})
		t.setLastLSN(lsn)
		return lsn
	})
	return keyNotFound(err, key)
}

// applyInsertAt adds the row key → val on shard target, logging an
// insert record; see applyPatchAt.
func (tc *TC) applyInsertAt(target wal.ShardID, t *Txn, key uint64, val []byte) error {
	return tc.dc.At(target).Insert(key, val, func(pid storage.PageID) wal.LSN {
		lsn := tc.app.MustAppend(&wal.InsertRec{
			TxnID:   t.logName(),
			KeyVal:  key,
			Val:     val,
			PageID:  pid,
			ShardID: target,
			PrevLSN: t.LastLSN(),
		})
		t.setLastLSN(lsn)
		return lsn
	})
}

// applyDeleteAt removes the row under key on shard target, logging a
// delete record; see applyPatchAt. The DC hands the log function the
// row it removes, which the record carries as OldVal.
func (tc *TC) applyDeleteAt(target wal.ShardID, t *Txn, key uint64) error {
	err := tc.dc.At(target).Delete(key, func(pid storage.PageID, old []byte) wal.LSN {
		lsn := tc.app.MustAppend(&wal.DeleteRec{
			TxnID:   t.logName(),
			KeyVal:  key,
			OldVal:  old,
			PageID:  pid,
			ShardID: target,
			PrevLSN: t.LastLSN(),
		})
		t.setLastLSN(lsn)
		return lsn
	})
	return keyNotFound(err, key)
}

// keyNotFound maps the DC's missing-key error to ErrKeyNotFound and
// returns any other error as is.
func keyNotFound(err error, key uint64) error {
	if errors.Is(err, btree.ErrKeyNotFound) {
		return fmt.Errorf("%w: key %d", ErrKeyNotFound, key)
	}
	return err
}

// endUnlogged ends t with the given status if it never logged a record,
// and reports whether it did so. Such a transaction changed nothing, so
// there is nothing to undo, nothing to make durable and nothing recovery
// needs to hear about: no commit or abort record, no force, no EOSL — it
// leaves the transaction table and releases its locks. It is the one
// place the elision lives; SessionManager.commit and abort call it
// first.
func (tc *TC) endUnlogged(t *Txn, status Status) bool {
	if t.FirstLSN() != wal.NilLSN {
		return false
	}
	tc.finishTxn(t, status, nil)
	tc.locks.ReleaseAll(t.ID)
	return true
}

// logEnd appends t's end record — its commit or abort — and ends t with
// the given status, and returns the record's LSN. The append and the
// removal from the active table are one critical section under t's
// transaction-table shard mutex, which the checkpoint's snapshot takes
// after appending its begin record: the snapshot sees t only while its
// end record is not yet in the log, so a listed transaction's end record
// lands above the begin-checkpoint LSN and recovery never rolls back a
// transaction whose commit it did not scan.
func (tc *TC) logEnd(t *Txn, rec wal.Record, status Status) wal.LSN {
	var lsn wal.LSN
	tc.finishTxn(t, status, func() {
		lsn = tc.app.MustAppend(rec)
		t.setLastLSN(lsn)
		if tc.endAppended != nil {
			tc.endAppended()
		}
	})
	return lsn
}

// finishTxn records t's terminal state: status, removal from the
// active table (after end, if not nil, in the same critical section),
// and the commit/abort counter. Lock release and durability stay with
// the caller.
func (tc *TC) finishTxn(t *Txn, status Status, end func()) {
	t.status = status
	tc.txns.remove(t.ID, end)
	if status == StatusCommitted {
		tc.stats.committed.Add(1)
	} else {
		tc.stats.aborted.Add(1)
	}
}

// rollback undoes t's operations from its last record back to the
// beginning, writing a CLR for each undone operation. Undo is logical:
// rows are relocated by key through the DC's index, exactly as crash
// undo does (§1.2 — undo is already logical in ARIES).
func (tc *TC) rollback(t *Txn) error {
	cur := t.LastLSN()
	for cur != wal.NilLSN {
		rec, err := tc.log.Get(cur)
		if err != nil {
			return err
		}
		next, err := tc.undoOne(t, rec)
		if err != nil {
			return fmt.Errorf("undo at %v: %w", cur, err)
		}
		cur = next
	}
	return nil
}

// undoOne compensates a single record, returning the next LSN to undo.
// Compensations target the record's shard directly: the record's
// stamp, not the routing table, says where the operation ran. t still
// holds its X locks, so the row is the one the record left.
func (tc *TC) undoOne(t *Txn, rec wal.Record) (wal.LSN, error) {
	clr, next, _, err := wal.Undo(rec)
	if err != nil || clr == nil {
		return next, err
	}
	err = tc.dc.At(clr.ShardID).Compensate(clr, func(pid storage.PageID) wal.LSN {
		clr.PageID, clr.PrevLSN = pid, t.LastLSN()
		lsn := tc.app.MustAppend(clr)
		t.setLastLSN(lsn)
		return lsn
	})
	if err != nil {
		return wal.NilLSN, fmt.Errorf("tc: undo at key %d: %w", clr.KeyVal, err)
	}
	return next, nil
}

// Checkpoint runs the penultimate checkpointing protocol (§3.2, §4.2):
//
//  1. append the begin-checkpoint record and force the log;
//  2. EOSL so the DC can flush pages dirtied up to it;
//  3. RSSP(bCkptLSN): the DC flushes everything dirtied before the
//     begin record (checkpoint-bit discipline) and records the redo
//     scan start point on its portion of the log;
//  4. append the end-checkpoint record (with the active transactions
//     that have logged anything), force it, and advance the master
//     record;
//  5. release the log below what a crash from here on can read: the
//     redo scan now starts at this checkpoint's begin record, and undo
//     walks no further down than the oldest active transaction's first
//     record.
//
// The active table is snapshotted before the end record is forced, so a
// transaction missing from it either ended earlier — its commit or
// abort record is then covered by that force — or logged its first
// record after the begin record, or never logged at all; none can need
// a byte below the release point. A transaction it lists has not
// appended its commit or abort record yet (logEnd), so the redo scan
// finds that record above the begin record.
func (tc *TC) Checkpoint() error {
	bLSN := tc.app.MustAppend(&wal.BeginCkptRec{})
	eLSN := tc.app.Flush()
	tc.dc.EOSL(eLSN)

	if err := tc.dc.RSSP(bLSN); err != nil {
		return fmt.Errorf("tc: checkpoint RSSP: %w", err)
	}

	end := &wal.EndCkptRec{BeginLSN: bLSN, Routes: tc.dc.Routes()}
	keep := bLSN
	for _, t := range tc.txns.snapshot() {
		first := t.FirstLSN()
		if first == wal.NilLSN {
			// Nothing logged: nothing to undo, and if it stays that way
			// no end record will ever name it (endUnlogged). If it logs
			// later, that record lies above bLSN and the scan finds it.
			continue
		}
		end.Active = append(end.Active, wal.ActiveTxn{TxnID: wal.TxnID(first), LastLSN: t.LastLSN()})
		keep = min(keep, first)
	}
	endLSN := tc.app.MustAppend(end)
	eLSN = tc.app.Flush()
	tc.dc.EOSL(eLSN)
	tc.lastEndCkpt.Store(uint64(endLSN))
	if tc.masterHook != nil {
		if err := tc.masterHook(endLSN); err != nil {
			return fmt.Errorf("tc: persisting master record: %w", err)
		}
	}
	tc.stats.checkpoints.Add(1)
	if _, err := tc.log.Release(keep); err != nil {
		return fmt.Errorf("tc: checkpoint: %w", err)
	}
	return nil
}

// SetMasterHook subscribes fn to master-record advances (see the
// masterHook field); the engine's file mode installs the boot-block
// writer here.
func (tc *TC) SetMasterHook(fn func(wal.LSN) error) { tc.masterHook = fn }

// SendEOSL forces the log and pushes the new end of stable log to the
// DC. The harness calls it on the paper's EOSL cadence; a commit's
// group flush does the same.
func (tc *TC) SendEOSL() wal.LSN {
	eLSN := tc.app.Flush()
	tc.dc.EOSL(eLSN)
	return eLSN
}

// RestoreMaster installs the master-record pointer after recovery.
func (tc *TC) RestoreMaster(lastEndCkpt wal.LSN) {
	tc.lastEndCkpt.Store(uint64(lastEndCkpt))
}
