// Package tc implements Deuteronomy's transactional component: it owns
// transactions, logical locking and logical logging, and drives the
// data components through the narrow interface of [10,12] — data
// operations identified by table and key (never page IDs), plus the two
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
	// updates counts data operations, for harness bookkeeping.
	updates int
}

// Status returns the transaction's lifecycle state.
func (t *Txn) Status() Status { return t.status }

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

// Stats counts TC activity.
type Stats struct {
	Begun       int64
	Committed   int64
	Aborted     int64
	Updates     int64
	Inserts     int64
	Deletes     int64
	Checkpoints int64
	RangeSplits int64
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

	// txns is the transaction table: ID allocation plus the active set,
	// hash-sharded so sessions' Begin/Commit never serialize behind one
	// another or behind data operations.
	txns *txnTable

	// lastEndCkpt is the TC's master record: the LSN of the most recent
	// end-checkpoint record on the stable log. Recovery starts from the
	// begin-checkpoint it names (§3.2's penultimate checkpoint). It is
	// part of the crash-surviving state, like a boot block. Atomic so a
	// crash snapshot can read it while a background checkpointer
	// advances it.
	lastEndCkpt atomic.Uint64
	// masterHook, when set, persists each master-record advance (the
	// file-backed engine writes it to a well-known file, the real
	// system's boot-block sector). The simulated engine leaves it nil:
	// there the master record survives in CrashState directly.
	masterHook func(wal.LSN) error

	stats counters
}

// New creates a TC over the shared log and the shard set it drives.
func New(log *wal.Log, set *shard.Set) *TC {
	return &TC{
		log:   log,
		app:   log,
		dc:    set,
		locks: NewLockTable(),
		txns:  newTxnTable(),
	}
}

// Shards returns the data-component plane the TC drives.
func (tc *TC) Shards() *shard.Set { return tc.dc }

// SetAppender reroutes the TC's log appends (see Appender). The session
// layer installs the group committer here.
func (tc *TC) SetAppender(a Appender) { tc.app = a }

// Log returns the shared log (harness and recovery access).
func (tc *TC) Log() *wal.Log { return tc.log }

// Locks returns the lock table.
func (tc *TC) Locks() *LockTable { return tc.locks }

// Stats returns a snapshot of the counters.
func (tc *TC) Stats() Stats { return tc.stats.snapshot() }

// LastEndCkptLSN returns the master-record pointer to the latest
// completed checkpoint's end record.
func (tc *TC) LastEndCkptLSN() wal.LSN { return wal.LSN(tc.lastEndCkpt.Load()) }

// ActiveCount returns the number of in-flight transactions.
func (tc *TC) ActiveCount() int { return tc.txns.count() }

// Begin starts a transaction.
func (tc *TC) Begin() *Txn {
	t := &Txn{ID: tc.txns.allocate(), status: StatusActive}
	tc.txns.add(t)
	tc.stats.begun.Add(1)
	return t
}

func (tc *TC) checkActive(t *Txn) error {
	if t == nil || t.status != StatusActive {
		return ErrTxnNotActive
	}
	if !tc.txns.has(t.ID) {
		return ErrTxnNotActive
	}
	return nil
}

// Read returns the value under (table, key) with a shared lock.
func (tc *TC) Read(t *Txn, table wal.TableID, key uint64) ([]byte, bool, error) {
	if err := tc.checkActive(t); err != nil {
		return nil, false, err
	}
	if err := tc.locks.Acquire(t.ID, table, key, LockShared); err != nil {
		return nil, false, err
	}
	return tc.dc.Read(table, key)
}

// Row is one result of a range read.
type Row struct {
	Key uint64
	Val []byte
}

// ReadRange returns the rows with lo ≤ key ≤ hi, acquiring a shared
// lock on every row returned (member locking; phantom protection via
// full key-range lock modes is the subject of the companion
// Deuteronomy paper [13] and out of scope here).
func (tc *TC) ReadRange(t *Txn, table wal.TableID, lo, hi uint64) ([]Row, error) {
	var out []Row
	err := tc.ScanRange(t, table, lo, hi, nil, func(key uint64, val []byte) error {
		out = append(out, Row{Key: key, Val: append([]byte(nil), val...)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanRange streams the rows with lo ≤ key ≤ hi through fn in key
// order, pushing pred down into each shard's B-tree iterator: rows
// failing pred are dropped before they are copied, locked, or cross the
// shard boundary (a nil pred accepts every row). Every row fn sees is
// member-locked shared, like ReadRange; pred-rejected rows are not
// locked, which is the documented pushdown semantics — the predicate
// reads the committed row version the scan encounters. The value slice
// passed to pred and fn is only valid during the call; fn must copy
// what it keeps. This is the single-threaded path: under concurrent
// sessions use Session.ScanRange, which holds the overlapping shard
// planes so the range cannot be torn by a concurrent migration.
func (tc *TC) ScanRange(t *Txn, table wal.TableID, lo, hi uint64, pred func(key uint64, val []byte) bool, fn func(key uint64, val []byte) error) error {
	if err := tc.checkActive(t); err != nil {
		return err
	}
	return tc.dc.ReadRangeFiltered(table, lo, hi, pred, func(key uint64, val []byte) error {
		if err := tc.locks.Acquire(t.ID, table, key, LockShared); err != nil {
			return err
		}
		return fn(key, val)
	})
}

// Update replaces the value under (table, key) within t.
func (tc *TC) Update(t *Txn, table wal.TableID, key uint64, newVal []byte) error {
	if err := tc.checkActive(t); err != nil {
		return err
	}
	if err := tc.locks.Acquire(t.ID, table, key, LockExclusive); err != nil {
		return err
	}
	return tc.applyUpdateAt(tc.dc.Locate(key), t, table, key, newVal)
}

// applyUpdateAt performs the locked portion of Update on shard target:
// the caller holds the X lock (sessions acquire it outside the shard
// planes so lock-table sharding pays off), and a session resolves the
// owner while locking its plane, so the operation runs on that shard
// even if the routing table moves meanwhile. The update is one descent
// (dc.Patch): the patch copies the row it meets as the record's OldVal
// and returns newVal.
func (tc *TC) applyUpdateAt(target wal.ShardID, t *Txn, table wal.TableID, key uint64, newVal []byte) error {
	var oldVal []byte
	err := tc.dc.At(target).Patch(table, key, func(cur []byte) ([]byte, error) {
		oldVal = append(oldVal[:0], cur...)
		return newVal, nil
	}, func(pid storage.PageID) wal.LSN {
		lsn := tc.app.MustAppend(&wal.UpdateRec{
			TxnID:   t.logName(),
			TableID: table,
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
	if err != nil {
		return keyNotFound(err, table, key)
	}
	t.updates++
	tc.stats.updates.Add(1)
	return nil
}

// Insert adds a new row within t.
func (tc *TC) Insert(t *Txn, table wal.TableID, key uint64, val []byte) error {
	if err := tc.checkActive(t); err != nil {
		return err
	}
	if err := tc.locks.Acquire(t.ID, table, key, LockExclusive); err != nil {
		return err
	}
	return tc.applyInsertAt(tc.dc.Locate(key), t, table, key, val)
}

// applyInsertAt performs the locked portion of Insert on shard target;
// see applyUpdateAt.
func (tc *TC) applyInsertAt(target wal.ShardID, t *Txn, table wal.TableID, key uint64, val []byte) error {
	err := tc.dc.At(target).Insert(table, key, val, func(pid storage.PageID) wal.LSN {
		lsn := tc.app.MustAppend(&wal.InsertRec{
			TxnID:   t.logName(),
			TableID: table,
			KeyVal:  key,
			Val:     val,
			PageID:  pid,
			ShardID: target,
			PrevLSN: t.LastLSN(),
		})
		t.setLastLSN(lsn)
		return lsn
	})
	if err != nil {
		return err
	}
	t.updates++
	tc.stats.inserts.Add(1)
	return nil
}

// Delete removes a row within t.
func (tc *TC) Delete(t *Txn, table wal.TableID, key uint64) error {
	if err := tc.checkActive(t); err != nil {
		return err
	}
	if err := tc.locks.Acquire(t.ID, table, key, LockExclusive); err != nil {
		return err
	}
	return tc.applyDeleteAt(tc.dc.Locate(key), t, table, key)
}

// applyDeleteAt performs the locked portion of Delete on shard target;
// see applyUpdateAt. The DC hands the log function the row it removes,
// which the record carries as OldVal.
func (tc *TC) applyDeleteAt(target wal.ShardID, t *Txn, table wal.TableID, key uint64) error {
	err := tc.dc.At(target).Delete(table, key, func(pid storage.PageID, old []byte) wal.LSN {
		lsn := tc.app.MustAppend(&wal.DeleteRec{
			TxnID:   t.logName(),
			TableID: table,
			KeyVal:  key,
			OldVal:  old,
			PageID:  pid,
			ShardID: target,
			PrevLSN: t.LastLSN(),
		})
		t.setLastLSN(lsn)
		return lsn
	})
	if err != nil {
		return keyNotFound(err, table, key)
	}
	t.updates++
	tc.stats.deletes.Add(1)
	return nil
}

// keyNotFound maps the DC's missing-key error to ErrKeyNotFound and
// returns any other error as is.
func keyNotFound(err error, table wal.TableID, key uint64) error {
	if errors.Is(err, btree.ErrKeyNotFound) {
		return fmt.Errorf("%w: table %d key %d", ErrKeyNotFound, table, key)
	}
	return err
}

// Commit ends t successfully on the single-threaded path: the commit
// record is appended and forced inline — one force per transaction, and
// locks are held across it — and the new end of stable log is pushed to
// the DC via EOSL. Concurrent clients commit through Session.Commit,
// which releases locks first and shares the force through the group
// committer. A transaction that logged nothing has nothing to make
// durable: it appends and forces nothing (endUnlogged).
func (tc *TC) Commit(t *Txn) error {
	if err := tc.checkActive(t); err != nil {
		return err
	}
	if tc.endUnlogged(t, StatusCommitted) {
		return nil
	}
	lsn := tc.app.MustAppend(&wal.CommitRec{TxnID: t.logName()})
	t.setLastLSN(lsn)
	eLSN := tc.app.Flush()
	tc.dc.EOSL(eLSN)
	tc.finishTxn(t, StatusCommitted)
	tc.locks.ReleaseAll(t.ID)
	return nil
}

// endUnlogged ends t with the given status if it never logged a record,
// and reports whether it did so. Such a transaction changed nothing, so
// there is nothing to undo, nothing to make durable and nothing recovery
// needs to hear about: no commit or abort record, no force, no EOSL — it
// leaves the transaction table and releases its locks. It is the one
// place the elision lives; both Commit/Abort pairs (here and on Session)
// call it first.
func (tc *TC) endUnlogged(t *Txn, status Status) bool {
	if t.FirstLSN() != wal.NilLSN {
		return false
	}
	tc.finishTxn(t, status)
	tc.locks.ReleaseAll(t.ID)
	return true
}

// finishTxn records t's terminal state: status, removal from the
// active table, and the commit/abort counter. Lock release and
// durability stay with the caller (the single-threaded path forces the
// log inline; sessions wait on the group committer instead).
func (tc *TC) finishTxn(t *Txn, status Status) {
	t.status = status
	tc.txns.remove(t.ID)
	if status == StatusCommitted {
		tc.stats.committed.Add(1)
	} else {
		tc.stats.aborted.Add(1)
	}
}

// Abort rolls t back: its operations are undone logically in reverse
// order through the DC, each compensated by a CLR, then an abort record
// is forced.
func (tc *TC) Abort(t *Txn) error {
	if err := tc.checkActive(t); err != nil {
		return err
	}
	if tc.endUnlogged(t, StatusAborted) {
		return nil
	}
	if err := tc.rollback(t); err != nil {
		return fmt.Errorf("tc: rollback of txn %d: %w", t.ID, err)
	}
	lsn := tc.app.MustAppend(&wal.AbortRec{TxnID: t.logName()})
	t.setLastLSN(lsn)
	eLSN := tc.app.Flush()
	tc.dc.EOSL(eLSN)
	tc.finishTxn(t, StatusAborted)
	tc.locks.ReleaseAll(t.ID)
	return nil
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
// Compensations target the record's shard directly — the record, not
// the routing table, says where the operation ran, which keeps undo
// correct even mid-range-migration.
func (tc *TC) undoOne(t *Txn, rec wal.Record) (wal.LSN, error) {
	switch r := rec.(type) {
	case *wal.UpdateRec:
		// The record is a patch: put the before-middle back into the row
		// as it stands (t still holds its X lock, so it is the row the
		// update left) in the one descent that logs the same patch turned
		// round.
		err := tc.dc.At(r.ShardID).Patch(r.TableID, r.KeyVal, r.Before, func(pid storage.PageID) wal.LSN {
			clr := r.Compensation()
			clr.PageID, clr.ShardID, clr.PrevLSN = pid, r.ShardID, t.LastLSN()
			lsn := tc.app.MustAppend(clr)
			t.setLastLSN(lsn)
			return lsn
		})
		if err != nil {
			return wal.NilLSN, fmt.Errorf("tc: undo of update at key %d: %w", r.KeyVal, err)
		}
		return r.PrevLSN, nil
	case *wal.InsertRec:
		err := tc.dc.At(r.ShardID).Delete(r.TableID, r.KeyVal, func(pid storage.PageID, _ []byte) wal.LSN {
			lsn := tc.app.MustAppend(&wal.CLRRec{
				TxnID: t.logName(), TableID: r.TableID, KeyVal: r.KeyVal,
				Kind: wal.CLRUndoInsert, PageID: pid, ShardID: r.ShardID,
				UndoNextLSN: r.PrevLSN, PrevLSN: t.LastLSN(),
			})
			t.setLastLSN(lsn)
			return lsn
		})
		return r.PrevLSN, err
	case *wal.DeleteRec:
		err := tc.dc.At(r.ShardID).Insert(r.TableID, r.KeyVal, r.OldVal, func(pid storage.PageID) wal.LSN {
			lsn := tc.app.MustAppend(&wal.CLRRec{
				TxnID: t.logName(), TableID: r.TableID, KeyVal: r.KeyVal,
				Kind: wal.CLRUndoDelete, RestoreVal: r.OldVal, PageID: pid, ShardID: r.ShardID,
				UndoNextLSN: r.PrevLSN, PrevLSN: t.LastLSN(),
			})
			t.setLastLSN(lsn)
			return lsn
		})
		return r.PrevLSN, err
	case *wal.CLRRec:
		// CLRs are redo-only: skip to what the CLR says is next.
		return r.UndoNextLSN, nil
	case *wal.ShardMapRec:
		// The routing change never took effect (the migration is being
		// rolled back); nothing to compensate.
		return r.PrevLSN, nil
	default:
		return wal.NilLSN, fmt.Errorf("tc: unexpected %v record in txn %d backchain", rec.Type(), t.ID)
	}
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
// a byte below the release point.
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
// DC. The harness calls it on the paper's EOSL cadence; Commit also
// does it implicitly.
func (tc *TC) SendEOSL() wal.LSN {
	eLSN := tc.app.Flush()
	tc.dc.EOSL(eLSN)
	return eLSN
}

// SplitRange splits the routing range containing key `at` at that key
// and migrates the rows of the upper half to shard `to` — the TC-level
// scale-out operation behind range re-balancing. The migration is one
// system transaction: every moved row is deleted from the old shard and
// inserted on the new one through ordinary logged operations, then a
// ShardMapRec records the routing change, and the commit force makes
// the whole move durable. Only after that does the in-memory routing
// table flip, so a crash at any point leaves a consistent engine: an
// incomplete migration is a loser transaction whose undo puts every row
// back, and recovery applies the ShardMapRec exactly when the migration
// committed. If `to` already owns the range the call only adds the
// routing boundary.
//
// Like every direct TC method, SplitRange belongs to the
// single-threaded path: the scan, the per-row locks and the row moves
// assume no other goroutine mutates the range meanwhile. Under
// concurrent sessions call SessionManager.SplitRange instead, which
// holds both shards' planes across the whole migration.
func (tc *TC) SplitRange(table wal.TableID, at uint64, to wal.ShardID) error {
	if int(to) >= tc.dc.NumShards() {
		return fmt.Errorf("tc: split target shard %d out of range (have %d)", to, tc.dc.NumShards())
	}
	_, end, from := tc.dc.RangeOf(at)
	tc.dc.Split(at)
	if from == to {
		return nil
	}

	type row struct {
		k uint64
		v []byte
	}
	var rows []row
	err := tc.dc.ReadRange(table, at, end, func(k uint64, v []byte) error {
		rows = append(rows, row{k: k, v: append([]byte(nil), v...)})
		return nil
	})
	if err != nil {
		return fmt.Errorf("tc: split scan [%d, %d]: %w", at, end, err)
	}

	t := tc.Begin()
	fail := func(cause error) error {
		if err := tc.Abort(t); err != nil {
			return fmt.Errorf("tc: aborting failed range split: %v (split failed: %w)", err, cause)
		}
		return fmt.Errorf("tc: range split at %d: %w", at, cause)
	}
	for _, r := range rows {
		if err := tc.locks.Acquire(t.ID, table, r.k, LockExclusive); err != nil {
			return fail(err)
		}
	}
	for _, r := range rows {
		err := tc.dc.At(from).Delete(table, r.k, func(pid storage.PageID, _ []byte) wal.LSN {
			lsn := tc.app.MustAppend(&wal.DeleteRec{
				TxnID: t.logName(), TableID: table, KeyVal: r.k, OldVal: r.v,
				PageID: pid, ShardID: from, PrevLSN: t.LastLSN(),
			})
			t.setLastLSN(lsn)
			return lsn
		})
		if err != nil {
			return fail(err)
		}
		err = tc.dc.At(to).Insert(table, r.k, r.v, func(pid storage.PageID) wal.LSN {
			lsn := tc.app.MustAppend(&wal.InsertRec{
				TxnID: t.logName(), TableID: table, KeyVal: r.k, Val: r.v,
				PageID: pid, ShardID: to, PrevLSN: t.LastLSN(),
			})
			t.setLastLSN(lsn)
			return lsn
		})
		if err != nil {
			return fail(err)
		}
	}
	t.setLastLSN(tc.app.MustAppend(&wal.ShardMapRec{
		TxnID: t.logName(), SplitAt: at, End: end, NewShard: to, PrevLSN: t.LastLSN(),
	}))
	if err := tc.Commit(t); err != nil {
		return fmt.Errorf("tc: committing range split at %d: %w", at, err)
	}
	if err := tc.dc.Reassign(at, to); err != nil {
		return fmt.Errorf("tc: re-routing after split at %d: %w", at, err)
	}
	tc.stats.rangeSplits.Add(1)
	return nil
}

// RestoreMaster installs the master-record pointer after recovery.
func (tc *TC) RestoreMaster(lastEndCkpt wal.LSN) {
	tc.lastEndCkpt.Store(uint64(lastEndCkpt))
}
