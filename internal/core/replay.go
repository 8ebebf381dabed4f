package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"logrec/internal/btree"
	"logrec/internal/dc"
	"logrec/internal/engine"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// ReplayStats is a point-in-time snapshot of a Replayer's progress.
type ReplayStats struct {
	// Records is how many log records the replayer has consumed.
	Records int64
	// Ops is how many of them were data operations.
	Ops int64
	// Applied counts operations that actually modified a row; the
	// remainder were absorbed (an update or insert its row already shows,
	// a delete of an absent key).
	Applied int64
	// AppliedLSN is the stable-log position the replayer has fully
	// applied through — the standby's redo-scan start point if it had
	// to restart.
	AppliedLSN wal.LSN
}

// Replayer is a standby engine's applier: the incremental counterpart
// of the one-shot Recover, run over the shipped log. Shipped records
// land in the standby's log (wal.AppendStable); each CatchUp call pushes
// the newly stable suffix through the demultiplexer Recover uses
// (run.fanOut), which routes every data operation by key through the
// standby's own routing table, and re-executes it by key
// through the standby's own trees (applyLogical). The primary's
// physical records (SMO images, ∆/BW, RSSP) are only noted: the log
// names no page the standby must share, so the standby may use its own
// page size and shard count — the paper's §1.1 point that the logical
// log is the replication contract. Promote turns the standby into a
// primary: the merged backward undo sweep rolls back in-flight losers
// exactly as crash recovery would, then the engine reopens for sessions.
//
// CatchUp, Checkpoint and Promote must be called from one applier
// goroutine; the per-shard passes they run are internal. Stats may be
// read from anywhere.
type Replayer struct {
	eng *engine.Engine
	r   *run

	nextLSN wal.LSN
	// resume is the engine's applied LSN when this replayer was built:
	// the first CatchUp scans from the log start for the transaction
	// table, but applies nothing below resume — an earlier replayer of
	// this engine already has.
	resume wal.LSN

	// lastEndCkpt shadows the primary's master record: the last
	// end-checkpoint record in the stream, and lastCkptBegin the begin
	// record it names — where a crash recovery of the promoted engine
	// would start its redo scan.
	lastEndCkpt   wal.LSN
	lastCkptBegin wal.LSN

	// records is counted by note, on the applier goroutine; stats is the
	// snapshot each CatchUp publishes for other goroutines.
	records int64
	mu      sync.Mutex
	stats   ReplayStats

	err  error // sticky: a failed replay cannot be resumed
	done bool
}

// NewReplayer wires a replayer to a standby engine. The engine must be
// in standby mode (engine.Config.Standby): bulk-loaded with the same
// rows as the primary but never opened for sessions, its log fed only
// by shipment. A replayer built over an engine an earlier one has
// already fed resumes applying at that engine's AppliedLSN; it rescans
// the retained log below it only for the transaction table Promote
// needs.
func NewReplayer(eng *engine.Engine) *Replayer {
	r := newRun(eng.Clock, eng.Log, eng.Cfg.ScanCost, Options{}, eng.DCs)
	// Undo compensations route by key through the standby's own table,
	// not the primary's shard stamps.
	r.routeByKey = func(key uint64) (*shardRun, error) {
		return r.shards[eng.Set.Locate(key)], nil
	}
	rp := &Replayer{eng: eng, r: r, nextLSN: eng.Log.StartLSN(), resume: eng.AppliedLSN}
	rp.stats.AppliedLSN = max(rp.nextLSN, rp.resume)
	return rp
}

// route is the demultiplexer's routing function: a data operation goes
// by key through the standby's own routing table; every other record
// goes to shard 0, whose pass skips it.
func (rp *Replayer) route(rec wal.Record) wal.ShardID {
	if op, ok := rec.(wal.DataOp); ok {
		return rp.eng.Set.Locate(op.Key())
	}
	return 0
}

// pass is one shard's apply pass over a CatchUp's data operations, less
// those below the resume point (an earlier replayer applied them).
func (rp *Replayer) pass(sr *shardRun, next nextFunc) error {
	for {
		rec, lsn, ok, err := next()
		if err != nil || !ok {
			return err
		}
		op, isOp := rec.(wal.DataOp)
		if !isOp || lsn < rp.resume {
			continue
		}
		sr.met.RedoRecords++
		applied, err := applyLogical(sr.d, op, lsn)
		if err != nil {
			return fmt.Errorf("core: replay at %v on shard %d: %w", lsn, sr.id, err)
		}
		if applied {
			sr.met.Applied++
		}
	}
}

// errAbsorbed reports that the row already shows what a record would
// write, so nothing is written: a patch returns it to stop the tree, and
// a delete of an absent key is mapped to it.
var errAbsorbed = errors.New("already applied")

// applyLogical re-executes one logical operation through the standby's
// own tree in one descent, stamping the shipped LSN, and reports whether
// it changed a row. The standby's pages carry their own LSNs, so no page
// stamp screens a re-delivered operation: exactly-once delivery comes
// from the replayer's resume point (NewReplayer) and the apply is
// guarded by row state. An update is a patch (dc.Patch): it applies only
// to a row whose middle is its before-middle, is absorbed by one showing
// its after-middle — nothing is then written, stamped or dirtied — and
// fails the replay otherwise, an absent key included: that is an error,
// not an insert. The CLR of an update carries only the middle it
// restores, so it is checked for fit alone. An insert, and the CLR that
// puts a deleted row back, is a dc.Insert that falls back to a whole-row
// patch when the key is there already, absorbed if the row is the one it
// would write; a delete, and the CLR that takes an insert back, counts a
// missing key as absorbed.
func applyLogical(d *dc.DC, op wal.DataOp, lsn wal.LSN) (applied bool, err error) {
	stamp := func(storage.PageID) wal.LSN { return lsn }
	key := op.Key()
	upsert := func(val []byte) error {
		err := d.Insert(key, val, stamp)
		if !errors.Is(err, btree.ErrKeyExists) {
			return err
		}
		return d.Patch(key, func(cur []byte) ([]byte, error) {
			if bytes.Equal(cur, val) {
				return nil, errAbsorbed
			}
			return val, nil
		}, stamp)
	}
	remove := func() error {
		err := d.Delete(key, func(storage.PageID, []byte) wal.LSN { return lsn })
		if errors.Is(err, btree.ErrKeyNotFound) {
			return errAbsorbed
		}
		return err
	}
	switch t := op.(type) {
	case *wal.UpdateRec:
		err = d.Patch(key, func(cur []byte) ([]byte, error) {
			done, err := t.Applied(cur)
			if err == nil && done {
				err = errAbsorbed
			}
			if err != nil {
				return nil, err
			}
			return t.After(cur)
		}, stamp)
	case *wal.InsertRec:
		err = upsert(t.Val)
	case *wal.DeleteRec:
		err = remove()
	case *wal.CLRRec:
		switch t.Kind {
		case wal.CLRUndoUpdate:
			err = d.Patch(key, t.After, stamp)
		case wal.CLRUndoDelete:
			err = upsert(t.RestoreVal) // the whole row
		case wal.CLRUndoInsert:
			err = remove()
		default:
			err = fmt.Errorf("unknown CLR kind %d", t.Kind)
		}
	default:
		err = fmt.Errorf("unexpected record type %v", op.Type())
	}
	if errors.Is(err, errAbsorbed) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("logical replay of %v, key %d: %w", op.Type(), key, err)
	}
	return true, nil
}

// CatchUp applies everything stable in the standby log: on return the
// standby reflects every shipped, validated record. It first broadcasts
// the stable boundary as the EOSL so standby page flushes (cleaner
// pressure, checkpoints) never try to force the shipped log.
func (rp *Replayer) CatchUp() error {
	if rp.err != nil {
		return rp.err
	}
	if rp.done {
		return fmt.Errorf("core: replayer already promoted")
	}
	stable := rp.r.log.FlushedLSN()
	if stable <= rp.nextLSN {
		return nil
	}
	rp.eng.Set.EOSL(stable)

	if err := rp.r.fanOut(rp.nextLSN, rp.note, rp.route, rp.pass); err != nil {
		rp.err = fmt.Errorf("core: replaying shipped log from %v: %w", rp.nextLSN, err)
		return rp.err
	}
	rp.nextLSN, rp.eng.AppliedLSN = stable, stable

	st := ReplayStats{Records: rp.records, AppliedLSN: stable}
	for _, sr := range rp.r.shards {
		st.Ops += sr.met.RedoRecords
		st.Applied += sr.met.Applied
	}
	rp.mu.Lock()
	rp.stats = st
	rp.mu.Unlock()
	return nil
}

// note is the stream-order bookkeeping: the transaction table feeding
// Promote's undo and Checkpoint's release floor — the same table, under
// the same rule, as crash recovery's pass 1, so it holds only the
// in-flight transactions however long the stream — and the
// master-record shadow.
func (rp *Replayer) note(rec wal.Record, lsn wal.LSN) {
	rp.records++
	rp.r.txns.note(rec, lsn)
	if t, ok := rec.(*wal.EndCkptRec); ok {
		rp.lastEndCkpt, rp.lastCkptBegin = lsn, t.BeginLSN
	}
}

// Checkpoint takes a standby checkpoint: every applied page is flushed
// and each shard's boot page records the applied LSN as its redo-scan
// start point, bounding what a standby restart would have to re-ship.
// Nothing is appended to the log — every LSN of the standby log must
// hold the primary's bytes — but its head is released:
// below the applied LSN just persisted no page needs redo, below the
// oldest in-flight transaction's first record Promote's undo never
// reads, and below the begin record of the last checkpoint in the
// stream a crash recovery of the promoted engine never scans. Until the
// stream has shown a checkpoint, nothing is released.
func (rp *Replayer) Checkpoint() error {
	if rp.err != nil {
		return rp.err
	}
	for _, sr := range rp.r.shards {
		if err := sr.d.StandbyCheckpoint(rp.nextLSN); err != nil {
			return fmt.Errorf("core: standby checkpoint shard %d: %w", sr.id, err)
		}
	}
	if rp.lastEndCkpt == wal.NilLSN {
		return nil
	}
	keep := min(rp.nextLSN, rp.lastCkptBegin)
	if first := rp.r.txns.oldestFirst(); first != wal.NilLSN {
		keep = min(keep, first)
	}
	if _, err := rp.r.log.Release(keep); err != nil {
		return fmt.Errorf("core: standby checkpoint: %w", err)
	}
	return nil
}

// Promote turns the caught-up standby into a primary. The caller must
// have drained shipment and run a final CatchUp — everything stable on
// the standby log is the promoted state; in-flight losers (transactions
// with no commit in the stream) are rolled back by the same merged
// backward undo sweep crash recovery uses, appending their CLRs and
// aborts to the standby's log, which from here on is the new primary's.
// The engine then reopens for sessions: the standby's own routing
// table, SMO logging and ∆/BW tracking on, a fresh TC
// continuing the transaction-ID space, and an initial checkpoint.
// Returns the run metrics (LosersUndone, CLRsWritten).
func (rp *Replayer) Promote() (*Metrics, error) {
	if rp.done {
		return nil, fmt.Errorf("core: replayer already promoted")
	}
	rp.done = true
	if rp.err != nil {
		return nil, rp.err
	}
	if stable := rp.r.log.FlushedLSN(); stable != rp.nextLSN {
		return nil, fmt.Errorf("core: promote with unapplied stable log (%v applied, %v stable)", rp.nextLSN, stable)
	}

	if err := rp.r.undo(0); err != nil {
		return nil, fmt.Errorf("core: promote undo: %w", err)
	}

	// The standby keeps its own partitioning: the primary's routing
	// history names shards of another layout.
	set := rp.eng.Set
	set.StartLogging()
	newTC := tc.New(rp.r.log, set)
	newTC.RestoreMaster(rp.lastEndCkpt)
	newTC.SendEOSL()
	rp.eng.BecomePrimary(set, newTC)
	if err := newTC.Checkpoint(); err != nil {
		return nil, fmt.Errorf("core: promote checkpoint: %w", err)
	}
	return rp.r.met, nil
}

// Stats returns the counters as of the last completed CatchUp. Safe to
// call from any goroutine.
func (rp *Replayer) Stats() ReplayStats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.stats
}
