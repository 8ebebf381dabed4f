package core

import (
	"fmt"

	"logrec/internal/buffer"
	"logrec/internal/dpt"
	"logrec/internal/page"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// The replay pipeline.
//
// Every recovery method, at every width, is one computation over the
// one log (§2.1, §5.1):
//
//	log ─► note ─► demux ─► classify ─► resolve ─► screen ─► sink
//	(fanOut, core.go)       (scan, below)                    │
//	                                      inline: redoOp / installSMO here
//	                                      routed: route / SMO barrier ─► pool
//
// The methods differ only in how a data operation's page is resolved
// (an index traversal for the logical family, the record's PID for the
// SQL family) and screened (no DPT for Log0, the ∆-built DPT with a
// basic-mode tail for Log1/Log2, the analysis DPT for SQL1/SQL2), and in
// which prefetcher wraps the inline loop. The width
// (Options.RedoWorkers) only picks the sink; both sinks end in redoOp,
// and only the inline sink prefetches. Note builds the transaction
// table and runs in crash recovery's pass 1 only; the redo pass reuses
// what it built. A standby's continuous catch-up (replay.go) shares note
// and demux and applies by key.

// applyOp re-executes a data operation on its page (REDOOPERATION in
// Algorithms 1, 2 and 5). The caller has already decided redo is needed
// via the pLSN test; replay determinism guarantees the page has room
// (the page is in the exact state it had when the operation first ran),
// so structural errors here indicate recovery bugs, not recoverable
// conditions. An update (and the CLR of one) is a patch of the row the
// page holds; a patch that does not fit that row is wal.ErrBadRecord.
func applyOp(pool *buffer.Pool, f *buffer.Frame, op wal.DataOp, lsn wal.LSN) error {
	var err error
	switch t := op.(type) {
	case *wal.UpdateRec:
		err = f.Page.Patch(t.KeyVal, t.After)
	case *wal.InsertRec:
		err = f.Page.Insert(t.KeyVal, t.Val)
	case *wal.DeleteRec:
		err = f.Page.Delete(t.KeyVal)
	case *wal.CLRRec:
		switch t.Kind {
		case wal.CLRUndoUpdate:
			err = f.Page.Patch(t.KeyVal, t.After)
		case wal.CLRUndoInsert:
			err = f.Page.Delete(t.KeyVal)
		case wal.CLRUndoDelete:
			err = f.Page.Insert(t.KeyVal, t.RestoreVal) // the whole row
		default:
			err = fmt.Errorf("unknown CLR kind %d", t.Kind)
		}
	default:
		err = fmt.Errorf("unexpected record type %v", op.Type())
	}
	if err != nil {
		return fmt.Errorf("redo of %v at %v on page %d, key %d: %w", op.Type(), lsn, f.PID, op.Key(), err)
	}
	f.Page.SetLSN(uint64(lsn))
	pool.MarkDirty(f, lsn)
	return nil
}

// redoItem is one record that survived classification and screening,
// on its way to a sink: a data operation with its resolved page, or an
// SMO to install at this log position.
type redoItem struct {
	op  wal.DataOp
	pid storage.PageID
	lsn wal.LSN
	smo *wal.SMORec
}

// pacesPFList reports whether redo paces a PF-list, which dcPass then
// builds: inline Log2 only.
func (r *run) pacesPFList() bool {
	return r.m.UsesPrefetch() && r.m.IsLogical() && r.opt.RedoWorkers < 1
}

// redo is one shard's redo pass; RedoWorkers picks only its sink.
// Inline (0), survivors are applied on the pass's goroutine, and the
// loop is wrapped in the method's prefetcher: index preload plus the
// paced PF-list for Log2 (§4.4, Appendix A), log-driven read-ahead for
// SQL2 (Appendix A.2). Routed (≥ 1), the sink sends each survivor to
// the worker owning its page and raises SMO barriers, scoped to the
// workers an SMO touches; nothing prefetches, because the workers
// overlap their own page reads (parallel.go).
func (sr *shardRun) redo(next nextFunc) error {
	r := sr.r
	if r.opt.RedoWorkers >= 1 {
		pool := newShardedPool(r.opt.RedoWorkers)
		err := sr.scan(next, nil, false, func(it redoItem) error {
			if it.smo == nil {
				pool.route(sr, it.op, it.lsn)
				return nil
			}
			release, paused := pool.pause(sr, it.smo.AffectedPIDs())
			err := sr.installSMO(it.smo, it.lsn, sr.table)
			release()
			sr.met.SMOBarriers++
			sr.met.BarrierWorkersPaused += int64(paused)
			return err
		})
		wmet, werr := pool.finish()
		sr.met.add(&wmet)
		if err != nil {
			return err
		}
		return werr
	}
	pool := sr.d.Pool()
	var pf *pacer
	if r.pacesPFList() {
		if err := sr.preloadIndex(); err != nil {
			return fmt.Errorf("index preload: %w", err)
		}
		pf = newPacer(pool, sr.table, sr.pfList)
		pf.topUp()
	} else if r.m.UsesPrefetch() {
		next = (&lookahead{src: next, pool: pool, table: sr.table}).next
	}
	return sr.scan(next, pf, true, func(it redoItem) error {
		if it.smo != nil {
			return sr.installSMO(it.smo, it.lsn, sr.table)
		}
		return sr.redoOp(&sr.met, it.pid, it.op, it.lsn)
	})
}

// scan is the one redo loop. Each record is classified (SMO, data
// operation, or not redo's business); a data operation is charged
// perRecordCPU, resolved to its page — by index traversal when the
// logical family applies inline (Algorithm 2 line 8 / Algorithm 5 line
// 4: no PIDs are consulted), by the record's PID otherwise — and
// screened; survivors go to sink in log order. pf, when set, is topped
// up once per data operation.
func (sr *shardRun) scan(next nextFunc, pf *pacer, inline bool, sink func(redoItem) error) error {
	r := sr.r
	pool := sr.d.Pool()
	traverse := inline && r.m.IsLogical()
	for {
		rec, lsn, ok, err := next()
		if err != nil || !ok {
			return err
		}
		switch t := rec.(type) {
		case *wal.SMORec:
			// The logical family's DC pass has already replayed SMOs
			// (§4.2); the SQL family installs them at their log position.
			if !r.m.IsLogical() {
				err = sink(redoItem{smo: t, lsn: lsn})
			}
		case wal.DataOp:
			sr.met.RedoRecords++
			r.clock.Advance(perRecordCPU)
			if pf != nil {
				pf.topUp()
			}
			pid := t.PID()
			if traverse {
				// Index page misses are charged here.
				missBefore := pool.Stats().Misses
				pid, err = sr.d.Tree().FindLeaf(t.Key())
				sr.met.IndexPageFetches += pool.Stats().Misses - missBefore
				if err != nil {
					return fmt.Errorf("index search for key %d: %w", t.Key(), err)
				}
			}
			if sr.screen(pid, lsn) {
				err = sink(redoItem{op: t, pid: pid, lsn: lsn})
			} else if auditSkip != nil && inline {
				err = auditSkip(sr, pid, lsn)
			}
		}
		if err != nil {
			return err
		}
	}
}

// auditSkip, when set, is shown every record the inline width's screen
// skips, with the page it resolved to, before the next record is
// scanned: redo runs in log order, so the page must already hold the
// record. It is nil in production; tests set it through auditSkips. A
// routed pass is not audited: its scan runs beside the workers that
// write the pages it would read.
var auditSkip func(sr *shardRun, pid storage.PageID, lsn wal.LSN) error

// screen is the optimised redo test, before any data page is fetched
// (Algorithm 1 lines 4-8, Algorithm 5 lines 5-8): a page absent from
// the DPT, or a record below its entry's rLSN, cannot need redo. Without
// a DPT (Log0) everything passes. For the logical family,
// pages dirtied after the last ∆ record are unknown to the DPT, so the
// tail of the log falls back to basic logical redo (§4.3).
func (sr *shardRun) screen(pid storage.PageID, lsn wal.LSN) bool {
	if sr.table == nil {
		return true
	}
	if sr.r.m.IsLogical() && lsn >= sr.lastDeltaTCLSN {
		sr.met.TailRecords++
		return true
	}
	e := sr.table.Find(pid)
	if e == nil {
		sr.met.SkippedDPT++
		return false
	}
	if lsn < e.RLSN {
		sr.met.SkippedRLSN++
		return false
	}
	return true
}

// redoOp is where both sinks — and undo's routed compensations — end:
// fetch the page, apply the pLSN idempotence test, re-execute. The miss
// is attributed by a residency check rather than a pool-counter diff so
// it stays exact while other workers miss on their own pages; only one
// goroutine ever fetches a given page.
func (sr *shardRun) redoOp(met *Metrics, pid storage.PageID, op wal.DataOp, lsn wal.LSN) error {
	pool := sr.d.Pool()
	cached := pool.Contains(pid)
	f, err := pool.Get(pid)
	if err != nil {
		return fmt.Errorf("fetching page %d: %w", pid, err)
	}
	if !cached {
		met.DataPageFetches++
	}
	if uint64(lsn) <= f.Page.LSN() {
		met.SkippedPLSN++
		pool.Unpin(f)
		return nil
	}
	err = applyOp(pool, f, op, lsn)
	pool.Unpin(f)
	if err != nil {
		return err
	}
	met.Applied++
	return nil
}

// installSMO re-applies one structure-modification record: advance the
// tree metadata and install each page after-image whose target is older
// than the SMO — idempotent via the pLSN test, like all redo (§2.2).
// With a DPT (SQL redo, where SMOs replay as system-transaction page
// updates) each image is screened like any other update; the DC pass
// passes nil. A routed caller has paused the workers owning the SMO's
// pages, so the residency check cannot race. An image that is not one
// page long fails the replay, naming the LSN and the page.
func (sr *shardRun) installSMO(t *wal.SMORec, lsn wal.LSN, table *dpt.Table) error {
	tree := sr.d.Tree()
	// Tree metadata advances monotonically with the allocator cursor;
	// SMOs replayed below a newer boot image must not regress it. The
	// tree keeps its own table: no record names one.
	if m := tree.Meta(); t.Meta.NextPID >= m.NextPID {
		m.Root, m.Height, m.NextPID = t.Meta.Root, t.Meta.Height, t.Meta.NextPID
		tree.SetMeta(m)
	}
	pool := sr.d.Pool()
	size := sr.d.Disk().Config().PageSize
	for _, img := range t.Images {
		if len(img.Data) != size {
			// An image from another page geometry: copying it would
			// truncate or under-fill the page.
			return fmt.Errorf("SMO at %v: image of page %d is %d bytes, the page size is %d", lsn, img.PageID, len(img.Data), size)
		}
		if table != nil {
			if e := table.Find(img.PageID); e == nil || lsn < e.RLSN {
				continue
			}
		}
		var f *buffer.Frame
		var err error
		if pool.Contains(img.PageID) || sr.d.Disk().Exists(img.PageID) {
			f, err = pool.Get(img.PageID)
		} else {
			// The page never reached stable storage: materialise it
			// from the image alone.
			f, err = pool.NewPage(img.PageID, page.TypeInvalid)
		}
		if err != nil {
			return fmt.Errorf("SMO image for page %d: %w", img.PageID, err)
		}
		if f.Page.LSN() < uint64(lsn) {
			f.Page.CopyFrom(img.Data)
			pool.MarkDirty(f, lsn)
		}
		pool.Unpin(f)
	}
	return nil
}
