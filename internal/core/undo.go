package core

import (
	"fmt"

	"logrec/internal/storage"
	"logrec/internal/wal"
)

// Undo.
//
// Every method ends with the same logical undo pass (§2.1): losers'
// update records are compensated in a single merged backward sweep over
// the log, highest LSN first, exactly as ARIES does, each compensation
// routed to the data shard the record ran on; CLRs already on the log
// skip directly to their UndoNextLSN so undo work lost in a
// crash-during-recovery is never repeated. The sweep, the record switch
// and every CLR append run on the calling goroutine at every width, so
// the appended sequence — CLRs and abort records — and every
// per-transaction backchain are byte-identical whatever UndoWorkers is.
//
// The width only decides where a compensation's page application runs.
// Inline (UndoWorkers 0, and a standby's promotion) it goes through the
// DC's logical path right here. Routed, it is split into a serial
// *plan* and a sharded *apply*, reusing the redo worker pool (one pool
// spanning every data shard, tasks partitioned by (shard, page)). That
// is sound because losers are key-disjoint — two-phase locking means an
// uncommitted transaction still holds exclusive locks on every key it
// touched at the crash — so their compensations commute logically and
// only page-level coordination is needed:
//
//   - for each CLR the sweep resolves the key's current page through
//     the owning shard's index (internal pages only; that tree's
//     structure is frozen between latches) and routes the page
//     application to the worker owning that (shard, page), exactly like
//     a redo task — workers fetch their leaf pages concurrently, which
//     is where undo's IO parallelism comes from. WAL ordering holds: the
//     CLR is on the (volatile) log before any worker can dirty the
//     page, and each pool's log-force hook covers eviction flushes;
//
//   - an undo operation that can change a tree's structure (restoring
//     a deleted row, or restoring a value larger than the one it
//     replaces, either of which can split a full leaf) runs inline
//     under a page latch scoped to the affected page set — the one leaf
//     the key lives on. Only the worker owning that (shard, leaf) drains
//     and pauses; every other worker keeps streaming compensations, so
//     delete-heavy loser workloads stay pipelined. The FIFO task
//     channels double as the ordering fence: everything routed to the
//     latched leaf before the latch is applied before keys move, and
//     everything planned after it is resolved against the new
//     structure.
//
//     Why latching one leaf suffices for an operation that can split:
//     workers only ever apply to leaf pages by routed PID and never
//     traverse the tree, while the sweep — which runs the structural
//     operation itself — is the only goroutine that reads or writes
//     internal pages. A split of leaf L therefore races only with tasks
//     already queued for L (drained by the latch), moves keys only from
//     L to a freshly allocated sibling (which can have no queued
//     tasks), and rewires parents nobody else touches. A later
//     compensation for a key that moved re-resolves through the
//     post-split index on the sweep and routes to the sibling's worker
//     with every prior task for that key already applied.

// undoState tracks one loser transaction through the merged backward
// sweep.
type undoState struct {
	next wal.LSN // next record of this txn to undo
	last wal.LSN // txn's current backchain head (CLR PrevLSN)
}

// nextLoser picks the loser with the highest next-undo LSN. Live
// backchain positions are distinct log offsets; the only tie is between
// fully undone losers (NilLSN), broken on the lowest TxnID — the oldest
// first record — so the abort records are appended in one order on
// every run and at every width.
func nextLoser(losers map[wal.TxnID]*undoState) wal.TxnID {
	var pick wal.TxnID
	var pickLSN wal.LSN
	for id, st := range losers {
		if pick == 0 || st.next > pickLSN || (st.next == pickLSN && id < pick) {
			pick, pickLSN = id, st.next
		}
	}
	return pick
}

// resolveShard routes one undo compensation: by the record's shard
// stamp for recovery — not the routing table, which mid-migration may
// already (or no longer) point elsewhere — or by key when routeByKey is
// set (a standby, whose partitioning need not match the primary's
// stamps).
func (r *run) resolveShard(sh wal.ShardID, key uint64) (*shardRun, error) {
	if r.routeByKey != nil {
		return r.routeByKey(key)
	}
	if int(sh) >= len(r.shards) {
		return nil, fmt.Errorf("record names shard %d, engine has %d", sh, len(r.shards))
	}
	return r.shards[sh], nil
}

// undo rolls back every loser transaction with the one merged backward
// sweep, compensating inline (workers 0) or routing page applications
// to a pool of that many workers, then makes the undo work durable and
// releases the WAL constraint for post-recovery flushing.
func (r *run) undo(workers int) error {
	losers := make(map[wal.TxnID]*undoState)
	for id, lsn := range r.txns.losers() {
		losers[id] = &undoState{next: lsn, last: lsn}
	}
	r.met.LosersUndone = len(losers)

	var pool *shardedPool
	if workers >= 1 {
		pool = newShardedPool(workers)
	}
	err := r.undoSweep(pool, losers)
	if pool != nil {
		wmet, werr := pool.finish()
		r.met.UndoApplied += wmet.Applied
		r.met.DataPageFetches += wmet.DataPageFetches
		if err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	eLSN := r.log.Flush()
	for _, sr := range r.shards {
		sr.d.EOSL(eLSN)
	}
	return nil
}

// undoSweep is the merged backward sweep: repeatedly take the loser
// whose next record is highest in the log, compensate that record, and
// follow its backchain; a loser with nothing left gets its abort record.
func (r *run) undoSweep(pool *shardedPool, losers map[wal.TxnID]*undoState) error {
	for len(losers) > 0 {
		pick := nextLoser(losers)
		st := losers[pick]
		if st.next == wal.NilLSN {
			// Fully undone: close the transaction with an abort record.
			r.log.MustAppend(&wal.AbortRec{TxnID: pick})
			delete(losers, pick)
			continue
		}
		at := st.next
		rec, err := r.log.Get(at)
		if err == nil {
			st.next, err = r.undoRecord(pool, pick, st, rec)
		}
		if err != nil {
			return fmt.Errorf("undo of txn %d at %v: %w", pick, at, err)
		}
	}
	return nil
}

// undoRecord compensates one record of txn's backchain and returns the
// next LSN to undo.
func (r *run) undoRecord(pool *shardedPool, txn wal.TxnID, st *undoState, rec wal.Record) (wal.LSN, error) {
	switch t := rec.(type) {
	case *wal.UpdateRec:
		// The CLR is the update's patch turned round. Restoring a longer
		// middle can overflow the leaf and force a split.
		return t.PrevLSN, r.compensate(pool, st, t.ShardID, t.Compensation(), t.Shrinks())
	case *wal.InsertRec:
		// The inverse is a page delete; leaves never merge, so this
		// cannot change the tree's structure.
		clr := &wal.CLRRec{TxnID: txn, KeyVal: t.KeyVal, Kind: wal.CLRUndoInsert, UndoNextLSN: t.PrevLSN}
		return t.PrevLSN, r.compensate(pool, st, t.ShardID, clr, false)
	case *wal.DeleteRec:
		// The inverse re-inserts the row, which can split a full leaf.
		clr := &wal.CLRRec{TxnID: txn, KeyVal: t.KeyVal, Kind: wal.CLRUndoDelete, RestoreVal: t.OldVal, UndoNextLSN: t.PrevLSN}
		return t.PrevLSN, r.compensate(pool, st, t.ShardID, clr, true)
	case *wal.CLRRec:
		// Redo-only: skip over already-compensated work.
		return t.UndoNextLSN, nil
	case *wal.ShardMapRec:
		// The routing change of a loser migration never takes effect;
		// nothing to compensate.
		return t.PrevLSN, nil
	default:
		return wal.NilLSN, fmt.Errorf("unexpected %v record in backchain", rec.Type())
	}
}

// compensate performs one planned compensation on its owning shard. clr
// arrives complete but for its shard, page and backchain link; it is
// appended here, on the sweep's goroutine, once the page is known;
// structural says whether the inverse can change the tree's structure.
// A routed, non-structural step resolves the key's leaf through the
// index and hands the page application to the owning worker — an
// update's CLR is a patch, so the sweep never reads the leaf that worker
// may be writing. Everything else — the inline width, and a structural
// step, which first latches the key's current leaf (safe to resolve
// off-latch: only the sweep ever changes structure) — runs the DC's full
// logical operation: an update's CLR patches the row in place in one
// descent of the quiesced tree (dc.Patch), and every CLR is logged
// against the page the row finally lands on.
func (r *run) compensate(pool *shardedPool, st *undoState, sh wal.ShardID, clr *wal.CLRRec, structural bool) error {
	sr, err := r.resolveShard(sh, clr.KeyVal)
	if err != nil {
		return err
	}
	clr.ShardID, clr.PrevLSN = sr.id, st.last
	logCLR := func(pid storage.PageID) wal.LSN {
		clr.PageID = pid
		st.last = r.log.MustAppend(clr)
		r.met.CLRsWritten++
		return st.last
	}
	if pool != nil {
		pid, err := sr.d.Tree().FindLeaf(clr.KeyVal)
		if err != nil {
			return fmt.Errorf("index search for key %d: %w", clr.KeyVal, err)
		}
		if !structural {
			pool.route(sr, clr, logCLR(pid))
			return nil
		}
		release, paused := pool.pause(sr, []storage.PageID{pid})
		defer release()
		r.met.UndoBarriers++
		r.met.BarrierWorkersPaused += int64(paused)
	}
	switch clr.Kind {
	case wal.CLRUndoInsert:
		return sr.d.Delete(clr.KeyVal, func(pid storage.PageID, _ []byte) wal.LSN { return logCLR(pid) })
	case wal.CLRUndoDelete:
		return sr.d.Insert(clr.KeyVal, clr.RestoreVal, logCLR) // the whole row
	default: // wal.CLRUndoUpdate: patch the row in the descent that logs the CLR
		if err := sr.d.Patch(clr.KeyVal, clr.After, logCLR); err != nil {
			return fmt.Errorf("key %d: %w", clr.KeyVal, err)
		}
		return nil
	}
}
