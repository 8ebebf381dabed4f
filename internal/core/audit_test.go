package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"logrec/internal/page"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// auditSkips turns on the redo skip audit until t ends and returns the
// count of skips it checked. Every record the inline width's screen
// skips (SkippedDPT, SkippedRLSN) claims its page already holds it; redo
// runs in log order, so the page's pLSN — the resident frame's, or the
// device image's — must already be at or past the record. The audit
// reads both without a clock charge, a fetch or a touch of the clock
// ring, so an audited run's counts and virtual time are the unaudited
// run's. It needs the simulated disk.
func auditSkips(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	auditSkip = func(sr *shardRun, pid storage.PageID, lsn wal.LSN) error {
		n.Add(1)
		plsn, ok := sr.d.Pool().ResidentLSN(pid)
		if !ok {
			disk, sim := sr.d.Disk().(*storage.Disk)
			if !sim {
				return fmt.Errorf("skip audit: %v skipped the record at %v on page %d off the simulated disk", sr.r.m, lsn, pid)
			}
			if img, stored := disk.Image(pid); stored {
				plsn = page.WrapShared(img).LSN()
			}
		}
		if plsn < uint64(lsn) {
			return fmt.Errorf("skip audit: %v skipped the record at %v on page %d, whose pLSN is %d: a needed record was dropped",
				sr.r.m, lsn, pid, plsn)
		}
		return nil
	}
	t.Cleanup(func() { auditSkip = nil })
	return &n
}
