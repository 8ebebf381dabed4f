package core

import (
	"logrec/internal/dpt"
	"logrec/internal/wal"
)

// dcPass is one shard's DC recovery for the logical family (§4.2): it
// consumes the shard's records from the redo scan start point, replays
// SMO records so the B-tree is well-formed before any logical redo
// re-traverses it (§1.2), and — for the DPT-optimised methods —
// constructs the logical DPT from ∆-log records per Algorithm 4, plus
// the PF-list for Log2's prefetch (Appendix A.2). It takes the place
// of the SQL analysis pass (§5.1). The demultiplexer delivers exactly
// this shard's SMO/∆/BW records, plus — on shard 0 — the records no
// shard owns, which the type switch ignores.
func (sr *shardRun) dcPass(next nextFunc) error {
	if sr.r.m.UsesDPT() {
		sr.table = dpt.New()
	}
	prevDelta := sr.r.scanStart
	sr.lastDeltaTCLSN = sr.r.scanStart

	for {
		rec, lsn, ok, err := next()
		if err != nil || !ok {
			return err
		}
		sr.r.clock.Advance(analysisRecordCPU)
		switch t := rec.(type) {
		case *wal.SMORec:
			if err := sr.installSMO(t, lsn, nil); err != nil {
				return err
			}
		case *wal.DeltaRec:
			sr.met.DeltaSeen++
			if t.BW {
				// The batch's BW record, folded into its ∆ (Figure 2c
				// counts it as both).
				sr.met.BWSeen++
			}
			if sr.table != nil && t.TCLSN > sr.r.scanStart {
				sr.applyDelta(t, prevDelta)
				prevDelta = t.TCLSN
				sr.lastDeltaTCLSN = t.TCLSN
			}
		case *wal.BWRec:
			// BW records belong to the SQL family; the DC pass ignores
			// them (counted for Figure 2c).
			sr.met.BWSeen++
		}
	}
}

// applyDelta folds one ∆-log record into the DPT under construction
// (Algorithm 4's DC-DPT-UPDATE) and extends the PF-list.
//
// DirtySet entries before FirstDirty were dirtied before the interval's
// first page flush, so the previous ∆ record's TC-LSN bounds their
// first-dirtying operation from below; entries from FirstDirty onward
// were dirtied after that flush, so the interval's FW-LSN bounds them.
// The WrittenSet then prunes pages flushed after their last recorded
// update.
//
// The perfect variant (Appendix D.1) carries per-entry dirtying LSNs
// and uses them directly, producing the same DPT SQL Server builds. The
// reduced variant (D.2) is encoded by the tracker as FW-LSN = nil and
// FirstDirty = len(DirtySet): every entry takes the previous record's
// TC-LSN, and pruning can only trust flushes to cover updates before
// the previous record.
func (sr *shardRun) applyDelta(t *wal.DeltaRec, prevDelta wal.LSN) {
	perfect := len(t.DirtyLSNs) == len(t.DirtySet) && len(t.DirtySet) > 0
	for i, pid := range t.DirtySet {
		var rlsn wal.LSN
		switch {
		case perfect:
			rlsn = t.DirtyLSNs[i]
		case uint32(i) < t.FirstDirty:
			rlsn = prevDelta
		default:
			rlsn = t.FWLSN
		}
		if sr.table.Find(pid) == nil {
			sr.pfList = append(sr.pfList, pid)
		}
		sr.table.Add(pid, rlsn)
	}
	threshold := t.FWLSN
	if threshold == wal.NilLSN {
		threshold = prevDelta
	}
	sr.table.PruneFlushed(t.WrittenSet, threshold)
}
