package core

import (
	"fmt"
	"sync"

	"logrec/internal/dc"
	"logrec/internal/engine"
	"logrec/internal/shard"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// ReplayMode selects how a standby applies the shipped record stream.
type ReplayMode int

// Replay modes.
const (
	// ReplaySameGeometry runs the recovery redo machinery continuously:
	// SMO records install the primary's page images, data operations are
	// screened with the pLSN test, and the standby converges to a
	// page-identical copy. It requires the standby to mirror the
	// primary's shard count and page geometry.
	ReplaySameGeometry ReplayMode = iota
	// ReplayLogical re-executes only the logical operations through the
	// standby's own B-trees, routed by key through the standby's own
	// routing table. Physical records (SMO images, ∆/BW, RSSP) are
	// skipped, so the standby may use a different page size or shard
	// count and still converge to the same rows — the paper's §1.1
	// point that the logical log, carrying no PIDs, is the replication
	// contract.
	ReplayLogical
)

func (m ReplayMode) String() string {
	if m == ReplayLogical {
		return "logical"
	}
	return "same-geometry"
}

// ReplayStats is a point-in-time snapshot of a Replayer's progress.
type ReplayStats struct {
	// Records is how many log records the replayer has consumed.
	Records int64
	// Ops is how many of them were data operations.
	Ops int64
	// Applied counts operations that actually modified a page; the
	// remainder were screened out by the pLSN idempotence test.
	Applied int64
	// SMOs counts structure-modification records replayed
	// (same-geometry mode only).
	SMOs int64
	// AppliedLSN is the stable-log position the replayer has fully
	// applied through — the standby's redo-scan start point if it had
	// to restart.
	AppliedLSN wal.LSN
}

// Replayer runs the recovery redo pipeline continuously against a
// standby engine: the incremental counterpart of the one-shot Recover.
// Shipped records land in the standby's log (wal.AppendStable); each
// CatchUp call pushes the newly stable suffix through the same
// demultiplexer (run.fanOut) and, in same-geometry mode, the same
// per-shard redo loop Recover uses — at the inline width with Log0's
// resolve and screen (traverse the index, no DPT) and SMO images
// installed at their log position — and returns once everything stable
// is applied. Promote turns the standby into a primary: the merged
// backward undo sweep rolls back in-flight losers exactly as crash
// recovery would, then the engine reopens for sessions.
//
// CatchUp, Checkpoint and Promote must be called from one applier
// goroutine; the per-shard passes they run are internal. Stats may be
// read from anywhere.
type Replayer struct {
	eng  *engine.Engine
	mode ReplayMode
	r    *run

	nextLSN wal.LSN
	// resume is the engine's applied LSN when this replayer was built:
	// the first CatchUp scans from the log start for the transaction
	// table and routes, but applies nothing below resume — an earlier
	// replayer of this engine already has.
	resume wal.LSN

	// router mirrors the primary's routing table: committed migrations
	// from the stream are applied as they commit, so Promote can
	// install the routes the primary died with. pendingRoutes holds
	// each in-flight migration's ShardMapRecs until its commit decides
	// them. Same-geometry mode only.
	router        *shard.Router
	pendingRoutes map[wal.TxnID][]*wal.ShardMapRec
	// lastEndCkpt shadows the primary's master record: the last
	// end-checkpoint record in the stream, and lastCkptBegin the begin
	// record it names — where a crash recovery of the promoted engine
	// would start its redo scan.
	lastEndCkpt   wal.LSN
	lastCkptBegin wal.LSN

	// records and smos are counted by note, on the applier goroutine;
	// stats is the snapshot each CatchUp publishes for other goroutines.
	records, smos int64
	mu            sync.Mutex
	stats         ReplayStats

	err  error // sticky: a failed replay cannot be resumed
	done bool
}

// NewReplayer wires a replayer to a standby engine. The engine must be
// in standby mode (engine.Config.Standby): bulk-loaded with the same
// rows as the primary but never opened for sessions, its log fed only
// by shipment. Same-geometry mode additionally requires the standby to
// mirror the primary's shard layout — a record naming a shard the
// standby does not have fails the replay. A replayer built over an
// engine an earlier one has already fed resumes applying at that
// engine's AppliedLSN; it rescans the retained log below it only for
// the transaction table and routes Promote needs.
func NewReplayer(eng *engine.Engine, mode ReplayMode) (*Replayer, error) {
	r := newRun(eng.Clock, eng.Log, Options{}.withDefaults(eng.Cfg), eng.DCs)
	r.m, r.smoInRedo = Log0, true
	router, err := shard.NewRouter(shard.DefaultRoutes(len(r.shards), eng.Cfg.KeySpan))
	if err != nil {
		return nil, fmt.Errorf("core: standby routing table: %w", err)
	}
	rp := &Replayer{
		eng:           eng,
		mode:          mode,
		r:             r,
		nextLSN:       eng.Log.StartLSN(),
		resume:        eng.AppliedLSN,
		router:        router,
		pendingRoutes: make(map[wal.TxnID][]*wal.ShardMapRec),
	}
	rp.stats.AppliedLSN = max(rp.nextLSN, rp.resume)
	if mode == ReplayLogical {
		// Undo compensations route by key through the standby's own
		// table, not the primary's shard stamps.
		r.routeByKey = func(key uint64) (*shardRun, error) {
			return r.shards[eng.Set.Locate(key)], nil
		}
	}
	return rp, nil
}

// route is the demultiplexer's routing function: the record's shard
// stamp on a mirror-image standby; off-geometry, data operations go by
// key through the standby's own routing table and physical shard
// records (SMO images, ∆/BW, RSSP) are dropped.
func (rp *Replayer) route(rec wal.Record) (wal.ShardID, bool) {
	if rp.mode == ReplaySameGeometry {
		return shardOf(rec)
	}
	if op, ok := rec.(wal.DataOp); ok {
		return rp.eng.Set.Locate(op.Key()), true
	}
	return 0, false
}

// pass is one shard's apply pass over a CatchUp's records, less those
// below the resume point (an earlier replayer applied them). Same
// geometry is the recovery redo loop itself: the pLSN test keeps the
// apply idempotent besides, and ∆, BW and RSSP records — which serve
// crash recovery of the primary — fall through its classification.
// Off-geometry each data operation is re-executed logically, guarded by
// row state (applyLogical).
func (rp *Replayer) pass(sr *shardRun, next nextFunc) error {
	if src := next; rp.resume > rp.nextLSN {
		next = func() (wal.Record, wal.LSN, bool, error) {
			for {
				rec, lsn, ok, err := src()
				if err != nil || !ok || lsn >= rp.resume {
					return rec, lsn, ok, err
				}
			}
		}
	}
	if rp.mode == ReplaySameGeometry {
		return sr.redo(next)
	}
	for {
		rec, lsn, ok, err := next()
		if err != nil || !ok {
			return err
		}
		if op, isOp := rec.(wal.DataOp); isOp {
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
}

// applyLogical re-executes one logical operation through the standby's
// own tree, stamping the shipped LSN, and reports whether it changed a
// row. Off-geometry pages carry their own LSNs, so no page stamp screens
// a re-delivered operation: exactly-once delivery comes from the
// replayer's resume point (NewReplayer) and the apply is guarded by row
// state. Inserts, deletes and their CLRs are state-based and absorb
// re-delivery. An update is a patch: it applies only to a row whose
// middle is its before-middle, is absorbed by one showing its
// after-middle, and fails the replay otherwise — an absent key included:
// that is an error, not an insert. The CLR of an update carries only
// the middle it restores, so it is checked for fit alone.
func applyLogical(d *dc.DC, op wal.DataOp, lsn wal.LSN) (applied bool, err error) {
	stamp := func(storage.PageID) wal.LSN { return lsn }
	table, key := op.Table(), op.Key()
	cur, found, err := d.Read(table, key)
	if err != nil {
		return false, fmt.Errorf("logical replay of %v, key %d: %w", op.Type(), key, err)
	}
	upsert := func(val []byte) error {
		if found {
			return d.Update(table, key, val, stamp)
		}
		return d.Insert(table, key, val, stamp)
	}
	remove := func() error {
		if !found {
			return nil
		}
		return d.Delete(table, key, stamp)
	}
	// patch rewrites the key's row with an update's or a CLR's After.
	patch := func(after func([]byte) ([]byte, error)) error {
		if !found {
			return fmt.Errorf("row is absent")
		}
		row, err := after(cur)
		if err != nil {
			return err
		}
		return d.Update(table, key, row, stamp)
	}
	applied = true
	switch t := op.(type) {
	case *wal.UpdateRec:
		done := false
		if found {
			done, err = t.Applied(cur)
		}
		if err == nil && !done {
			err = patch(t.After)
		}
		applied = !done
	case *wal.InsertRec:
		err = upsert(t.Val)
	case *wal.DeleteRec:
		applied = found
		err = remove()
	case *wal.CLRRec:
		switch t.Kind {
		case wal.CLRUndoUpdate:
			err = patch(t.After)
		case wal.CLRUndoDelete:
			err = upsert(t.RestoreVal) // the whole row
		case wal.CLRUndoInsert:
			applied = found
			err = remove()
		default:
			err = fmt.Errorf("unknown CLR kind %d", t.Kind)
		}
	default:
		err = fmt.Errorf("unexpected record type %v", op.Type())
	}
	if err != nil {
		return false, fmt.Errorf("logical replay of %v, key %d: %w", op.Type(), key, err)
	}
	return applied, nil
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

	err := rp.r.fanOut(rp.nextLSN, rp.note, rp.route, rp.pass)
	if err != nil && rp.err == nil {
		rp.err = fmt.Errorf("core: replaying shipped log from %v: %w", rp.nextLSN, err)
	}
	if rp.err != nil {
		return rp.err
	}
	rp.nextLSN, rp.eng.AppliedLSN = stable, stable

	st := ReplayStats{Records: rp.records, SMOs: rp.smos, AppliedLSN: stable}
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
// Promote's undo, route-change tracking, and the master-record shadow.
// Terminated transactions are pruned so a long-lived standby's table
// stays bounded by the in-flight set, not the stream length.
func (rp *Replayer) note(rec wal.Record, lsn wal.LSN) {
	rp.records++
	rp.r.txns.note(rec, lsn)
	switch t := rec.(type) {
	case *wal.SMORec:
		if rp.mode == ReplaySameGeometry {
			rp.smos++
		}
	case *wal.ShardMapRec:
		rp.pendingRoutes[t.TxnID] = append(rp.pendingRoutes[t.TxnID], t)
	case *wal.CommitRec:
		for _, sm := range rp.pendingRoutes[t.TxnID] {
			if err := rp.r.replayRoute(rp.router, sm); err != nil && rp.err == nil {
				rp.err = err
			}
		}
		delete(rp.pendingRoutes, t.TxnID)
		rp.r.txns.prune(t.TxnID)
	case *wal.AbortRec:
		delete(rp.pendingRoutes, t.TxnID)
		rp.r.txns.prune(t.TxnID)
	case *wal.EndCkptRec:
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
// The engine then reopens for sessions: routing table as the primary
// last committed it, SMO logging and ∆/BW tracking on, a fresh TC
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

	routes := rp.router.Routes()
	if rp.mode == ReplayLogical {
		// Off-geometry standbys keep their own partitioning; the
		// primary's routing history does not apply to them.
		routes = rp.eng.Set.Routes()
	}
	set, err := shard.NewSet(routes, rp.eng.DCs)
	if err != nil {
		return nil, fmt.Errorf("core: promote routing table: %w", err)
	}
	set.StartLogging()
	newTC := tc.New(rp.r.log, set)
	newTC.RestoreMaster(rp.lastEndCkpt)
	newTC.RestoreNextTxnID(rp.r.txns.maxID)
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
