package harness

import (
	"strings"
	"testing"

	"logrec/internal/core"
	"logrec/internal/tracker"
)

func TestRunFigure3Shapes(t *testing.T) {
	cfg := DefaultConfig().Scaled(20)
	rows, err := RunFigure3(cfg, []int{1, 5}, 0.16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Log0 must grow roughly linearly with the interval; Log1 must
	// grow strictly less.
	g0 := rows[1].RedoMS[core.Log0] / rows[0].RedoMS[core.Log0]
	g1 := rows[1].RedoMS[core.Log1] / rows[0].RedoMS[core.Log1]
	if g0 < 2 {
		t.Fatalf("Log0 growth %.2f at 5× interval, want ≥2", g0)
	}
	if g1 >= g0 {
		t.Fatalf("Log1 growth %.2f not below Log0 growth %.2f", g1, g0)
	}
	// The redone log must actually be ~5× longer.
	if rows[1].RedoRecs < 3*rows[0].RedoRecs {
		t.Fatalf("redo records %d vs %d — interval sweep ineffective",
			rows[1].RedoRecs, rows[0].RedoRecs)
	}
	var sb strings.Builder
	PrintFigure3(&sb, rows)
	if !strings.Contains(sb.String(), "×5") {
		t.Fatal("PrintFigure3 output missing interval row")
	}

	// Checkpointing bounds the redo scan: after eight checkpoints, a
	// crash replays fewer records, in less virtual redo time, than a
	// cold crash (no checkpoint since the load) of the same volume.
	cold := cfg
	cold.CrashAfterCheckpoints = 0
	cold.UpdatesAfterLastCkpt = 8 * cfg.CheckpointEveryUpdates
	warm := cfg
	warm.CrashAfterCheckpoints = 8
	var met [2]*core.Metrics
	for i, c := range []Config{cold, warm} {
		res, err := BuildCrash(c)
		if err != nil {
			t.Fatal(err)
		}
		if met[i], err = RunRecovery(res, core.Log1, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if met[1].RedoRecords >= met[0].RedoRecords || met[1].RedoTotal >= met[0].RedoTotal {
		t.Fatalf("checkpointed crash redid %d records in %v, cold crash %d in %v",
			met[1].RedoRecords, met[1].RedoTotal, met[0].RedoRecords, met[0].RedoTotal)
	}
}

func TestRunAppendixBModelHolds(t *testing.T) {
	// Scale 8 keeps the redone log long enough that flushing prunes a
	// real fraction of the DPT; at tinier scales Log0 and Log1
	// degenerate to the same fetch set.
	cfg := DefaultConfig().Scaled(8)
	rows, err := RunAppendixB(cfg, 0.16)
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[core.Method]CostModelRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	// Eq.2: SQL1 data fetches == DPT size exactly (every DPT entry that
	// survives screening is fetched once; cold cache).
	sql1 := byMethod[core.SQL1]
	if sql1.MeasuredData != sql1.Predicted {
		t.Fatalf("SQL1 fetches %d != DPT %d", sql1.MeasuredData, sql1.Predicted)
	}
	// Eq.3: Log1 within a small tolerance (tail records may hit cached
	// pages).
	log1 := byMethod[core.Log1]
	if diff := log1.MeasuredData - log1.Predicted; diff > 2 || diff < -20 {
		t.Fatalf("Log1 fetches %d vs model %d", log1.MeasuredData, log1.Predicted)
	}
	// Eq.1: Log0 bounded above by the record count and well above the
	// DPT-screened methods.
	log0 := byMethod[core.Log0]
	if log0.MeasuredData > log0.Predicted {
		t.Fatalf("Log0 fetched %d > one per record %d", log0.MeasuredData, log0.Predicted)
	}
	if log0.MeasuredData <= log1.MeasuredData {
		t.Fatalf("Log0 (%d) did not exceed Log1 (%d)", log0.MeasuredData, log1.MeasuredData)
	}
	// Only logical methods read index pages.
	if sql1.MeasuredIndex != 0 || log1.MeasuredIndex == 0 {
		t.Fatalf("index fetches: SQL1 %d, Log1 %d", sql1.MeasuredIndex, log1.MeasuredIndex)
	}
	var sb strings.Builder
	PrintAppendixB(&sb, rows)
	if !strings.Contains(sb.String(), "Eq.2") {
		t.Fatal("PrintAppendixB output incomplete")
	}
}

func TestRunAppendixDVariants(t *testing.T) {
	cfg := DefaultConfig().Scaled(20)
	rows, err := RunAppendixD(cfg, 0.16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d variants", len(rows))
	}
	byVariant := map[tracker.Variant]VariantRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	// D.1: the perfect variant logs strictly more bytes (DirtyLSNs).
	if byVariant[tracker.DeltaPerfect].LogBytes <= byVariant[tracker.DeltaStandard].LogBytes {
		t.Fatalf("perfect logged %d bytes ≤ standard %d",
			byVariant[tracker.DeltaPerfect].LogBytes, byVariant[tracker.DeltaStandard].LogBytes)
	}
	// D.2: reduced never shrinks the DPT below standard's.
	if byVariant[tracker.DeltaReduced].DPTSize < byVariant[tracker.DeltaStandard].DPTSize {
		t.Fatalf("reduced DPT %d < standard %d",
			byVariant[tracker.DeltaReduced].DPTSize, byVariant[tracker.DeltaStandard].DPTSize)
	}
	var sb strings.Builder
	PrintAppendixD(&sb, rows)
	if !strings.Contains(sb.String(), "perfect") {
		t.Fatal("PrintAppendixD output incomplete")
	}
}

// TestZipfShrinksDPT checks Appendix B's locality remark: a skewed
// workload dirties fewer distinct pages than uniform, shrinking the
// DPT and redo time.
func TestZipfShrinksDPT(t *testing.T) {
	base := DefaultConfig().Scaled(20)

	uni := base.WithCacheFraction(0.16)
	resU, err := BuildCrash(uni)
	if err != nil {
		t.Fatal(err)
	}
	metU, err := RunRecovery(resU, core.Log1, core.DefaultOptions(uni.Engine))
	if err != nil {
		t.Fatal(err)
	}

	zip := base.WithCacheFraction(0.16)
	zip.Workload.Dist = 1 // workload.Zipf
	zip.Workload.ZipfS = 1.4
	resZ, err := BuildCrash(zip)
	if err != nil {
		t.Fatal(err)
	}
	metZ, err := RunRecovery(resZ, core.Log1, core.DefaultOptions(zip.Engine))
	if err != nil {
		t.Fatal(err)
	}

	if metZ.DPTSize >= metU.DPTSize {
		t.Fatalf("zipf DPT %d not smaller than uniform %d", metZ.DPTSize, metU.DPTSize)
	}
	if metZ.RedoTotal >= metU.RedoTotal {
		t.Fatalf("zipf redo %v not faster than uniform %v", metZ.RedoTotal, metU.RedoTotal)
	}
}

// TestReadsDiluteDirtyDensity checks Appendix B's other remark: mixing
// reads into the workload lowers the dirty fraction of the cache. The
// lazywriter is disabled so the workload alone sets the density (with
// the ceiling cleaner on, both workloads sit at the ceiling).
func TestReadsDiluteDirtyDensity(t *testing.T) {
	base := DefaultConfig().Scaled(20)
	base.Engine.DC.CleanerTarget = 0

	pure := base.WithCacheFraction(0.16)
	resPure, err := BuildCrash(pure)
	if err != nil {
		t.Fatal(err)
	}

	mixed := base.WithCacheFraction(0.16)
	mixed.Workload.ReadFraction = 0.6
	resMixed, err := BuildCrash(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if resMixed.DirtyPct() >= resPure.DirtyPct() {
		t.Fatalf("reads did not dilute dirty density: %.1f%% vs %.1f%%",
			resMixed.DirtyPct(), resPure.DirtyPct())
	}
}
