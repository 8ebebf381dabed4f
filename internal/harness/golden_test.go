package harness

import (
	"fmt"
	"testing"

	"logrec/internal/core"
)

// goldenRow is what the inline width (RedoWorkers 0, one shard) must
// reproduce exactly: the virtual-time figures redobench plots and every
// screening and fetch count behind them.
type goldenRow struct {
	RedoTotalNS, PrepNS                        int64
	LogPages, RedoRecords, Applied             int64
	SkippedDPT, SkippedRLSN, SkippedPLSN       int64
	DataPageFetches, IndexPageFetches, DPTSize int64
}

// goldenInline was captured at commit 30b94c4, the last one with
// separate serial redo passes; the one replay pipeline must keep
// reproducing it bit for bit (ARCHITECTURE.md invariant 7). The SQL1 and
// SQL2 rows were re-pinned once, when analysis stopped pruning DPT
// entries whose lastLSN equals the exclusive FW-LSN (invariant 9): the
// pages it now keeps are fetched and fail the pLSN test.
var goldenInline = map[string]goldenRow{
	"0.08/Log0": {713180300, 5560300, 22, 170, 30, 0, 0, 140, 162, 9, 0},
	"0.08/Log1": {340080300, 5560300, 22, 170, 30, 89, 6, 45, 74, 6, 65},
	"0.08/SQL1": {364000300, 5560300, 22, 170, 30, 77, 6, 57, 86, 0, 86},
	"0.08/Log2": {125014300, 5560300, 22, 170, 30, 89, 6, 45, 74, 7, 65},
	"0.08/SQL2": {97294300, 5560300, 22, 170, 30, 77, 6, 57, 86, 0, 86},
	"0.32/Log0": {697779700, 6059700, 24, 170, 119, 0, 0, 51, 161, 6, 0},
	"0.32/Log1": {619879700, 6059700, 24, 170, 119, 19, 1, 31, 142, 6, 103},
	"0.32/SQL1": {594599700, 6059700, 24, 170, 119, 19, 1, 31, 142, 0, 142},
	"0.32/Log2": {303217700, 6059700, 24, 170, 119, 19, 1, 31, 142, 7, 103},
	"0.32/SQL2": {168059700, 6059700, 24, 170, 119, 19, 1, 31, 142, 0, 142},
}

// TestInlineWidthGolden pins the inline width's virtual time and
// counters — what `redobench` prints — inside tier-1, at two cache
// fractions of the 8×-scaled paper experiment.
func TestInlineWidthGolden(t *testing.T) {
	for _, frac := range []float64{0.08, 0.32} {
		cfg := DefaultConfig().Scaled(8).WithCacheFraction(frac)
		res, err := BuildCrash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mets, err := RunAll(res, core.DefaultOptions(cfg.Engine))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.Methods() {
			met := mets[m]
			got := goldenRow{
				int64(met.RedoTotal), int64(met.PrepTime),
				met.LogPagesRead, met.RedoRecords, met.Applied,
				met.SkippedDPT, met.SkippedRLSN, met.SkippedPLSN,
				met.DataPageFetches, met.IndexPageFetches, int64(met.DPTSize),
			}
			key := fmt.Sprintf("%.2f/%v", frac, m)
			if want := goldenInline[key]; got != want {
				t.Errorf("%s:\n got  %+v\n want %+v", key, got, want)
			}
		}
	}
}
