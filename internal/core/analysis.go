package core

import (
	"logrec/internal/dpt"
	"logrec/internal/sim"
	"logrec/internal/wal"
)

// analysisRecordCPU is the per-record bookkeeping cost of an analysis
// scan — pure in-memory work, tiny next to IO (the paper measures the
// analysis pass at under 2% of recovery time, §2.1).
const analysisRecordCPU = 300 * sim.Nanosecond

// sqlAnalysis is one shard's SQL Server analysis pass (Algorithm 3):
// starting at the penultimate begin-checkpoint, it builds the shard's
// DPT from the PIDs in its update log records (every data operation and
// SMO page image) and prunes it with its BW records — a standalone
// BWRec, or a ∆ record marked as its batch's BW (wal.DeltaRec.BW). No
// data pages are read; transaction-table reconstruction is global and
// handled by the record source / demultiplexer.
func (sr *shardRun) sqlAnalysis(next nextFunc) error {
	sr.table = dpt.New()
	for {
		rec, lsn, ok, err := next()
		if err != nil || !ok {
			return err
		}
		sr.r.clock.Advance(analysisRecordCPU)
		switch t := rec.(type) {
		case wal.DataOp:
			// First mention fixes rLSN; later mentions advance lastLSN
			// (Algorithm 3 lines 5-10).
			sr.table.Add(t.PID(), lsn)
		case *wal.SMORec:
			// SQL Server logs SMOs as system-transaction page updates;
			// their pages enter the DPT like any update (§2.1).
			for _, img := range t.Images {
				sr.table.Add(img.PageID, lsn)
			}
		case *wal.BWRec:
			sr.met.BWSeen++
			// Algorithm 3 lines 11-18: remove entries whose last
			// update preceded the flush, raise the rLSN of survivors.
			sr.table.PruneFlushed(t.WrittenSet, t.FWLSN)
		case *wal.DeltaRec:
			// Present on the shared log for the logical family; the
			// SQL analysis pass reads only a marked one's BW half
			// (counted for Figure 2c).
			sr.met.DeltaSeen++
			if t.BW {
				sr.met.BWSeen++
				sr.table.PruneFlushed(t.WrittenSet, t.FWLSN)
			}
		}
	}
}
