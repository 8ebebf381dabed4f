package harness

import (
	"fmt"
	"runtime"
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
//
// Re-pinned a second time, by rule, when update records became patches
// with varint bodies (the crash's log 366,345 → 60,166 bytes at 0.08,
// 365,008 → 58,834 at 0.32): every count is unchanged, LogPages fell
// 22 → 6 and 24 → 6 (each of the two scans reads 8, respectively 9,
// fewer 4 KB log pages), PrepNS fell by exactly that at 500 µs a page
// (4.0 ms, 4.5 ms), and RedoTotalNS by both scans' worth (8.0 ms,
// 9.0 ms) — except under Log2, whose redo waits on its paced prefetch:
// of the 4.0 ms (4.5 ms) its redo scan no longer spends reading log,
// 3.5 ms reappears as stall time on the same 30 (71) stalls, so its
// RedoTotalNS fell 4.5 ms (5.5 ms).
//
// Re-pinned a third time, by the same rule, when the frame header, the
// back-pointers and the system records became varints (the crash's log
// 60,166 → 41,348 bytes at 0.08, 58,834 → 40,722 at 0.32; the redo
// window 8,775 → 6,601 and 8,849 → 6,637 bytes): every count is
// unchanged. At 0.32 each scan reads one log page fewer: LogPages 6 → 4,
// PrepNS −0.5 ms, RedoTotalNS −1.0 ms under every method, Log2 included
// (its 71 stalls and their time are what they were). At 0.08 the
// shorter window still straddles three log pages, so LogPages and
// PrepNS stand, and so does RedoTotalNS under four methods; Log2's rose
// 0.5 ms on the same 30 stalls (device stall time 120.534 → 121.034 ms):
// the page boundaries fall at other records now — the third at 94 % of
// the window instead of 68 % — and one page read that used to overlap
// an in-flight prefetch no longer does.
//
// Re-pinned a fourth time, by the same rule, when a same-length patch
// began to log its length once and trailing zero fields stopped being
// written (the crash's log 41,348 → 38,107 bytes at 0.08, 40,722 →
// 37,495 at 0.32; the redo window 6,601 → 6,236 and 6,637 → 6,275
// bytes): every count is unchanged. At 0.08 the window still straddles
// three log pages and nothing moves. At 0.32 the shorter window moved
// down across a page boundary — it began 1,317 bytes into log page 8
// and ended in page 9, it now begins 2,548 bytes into page 7 and ends
// in page 9 — so each scan reads one log page more: LogPages 4 → 6,
// PrepNS +0.5 ms, RedoTotalNS +1.0 ms under every method, Log2 included
// (its 71 stalls and their time are what they were).
//
// Re-pinned a fifth time, by the same rule, when a ∆ record that says
// what its flush batch's BW record says began to stand in for it (the
// crash's log 38,107 → 35,155 bytes at 0.08, 37,494 → 34,785 at 0.32;
// the redo window 6,236 → 5,888 and 6,274 → 5,948 bytes, holding 6 and
// 5 BW records fewer): every count is unchanged, the BW intervals the
// prep passes see included. Records left the window, so besides the
// log-page term PrepNS loses the analysis pass's 300 ns a record for
// each. Each scan reads one log page fewer at both fractions: LogPages
// 6 → 4, PrepNS −0.5 ms − 6 × 300 ns (−501.8 µs) at 0.08 and −0.5 ms − 5
// × 300 ns (−501.5 µs) at 0.32, and RedoTotalNS −1.0 ms and the same
// record term (−1,001.8 µs, −1,001.5 µs) under every method — except
// Log2 at 0.32, whose redo waits on its paced prefetch: the 0.5 ms its
// redo scan no longer spends reading log reappears as stall time on the
// same 71 stalls (297.738 → 298.238 ms), so its RedoTotalNS fell by the
// prep term alone (−501.5 µs). With ScanCost.PerPage = 0 every count
// and every stall time is equal on both formats, and PrepNS and
// RedoTotalNS differ by the record term alone.
//
// Log format v7, which names a transaction by the distance back to its
// first record, moved nothing here: the crash's log 35,155 → 35,511
// bytes at 0.08 and 34,786 → 35,119 at 0.32 (the scaled run's counter
// stays in one or two bytes, while a 10-update transaction's later
// records name it from up to 200 bytes back), the redo window 5,888 →
// 5,774 and 5,948 → 5,837 bytes, still inside log pages 7 and 8 at both
// fractions, so LogPages, PrepNS and RedoTotalNS stand with every count.
//
// Log format v8 — no tail on an in-place patch, no prev on a commit or
// abort, written pages as ascending gaps — re-pinned one number, by the
// same rule: the crash's log 35,511 → 32,563 bytes at 0.08 and 35,119 →
// 32,294 at 0.32, the redo window 5,774 → 5,428 and 5,837 → 5,505 bytes,
// now inside log pages 6 and 7 at both fractions. Every count, LogPages
// and PrepNS stand. Log2 at 0.32 redoes behind its paced prefetch, and
// with the page boundary at another record one of its log-page reads now
// overlaps an in-flight prefetch: its stall time fell 0.5 ms on the same
// 71 stalls (298.238 → 297.738 ms), and so did its RedoTotalNS. With
// ScanCost.PerPage = 0 every count and time is equal on both formats.
//
// Log format v9 — no record names a table — re-pinned the same number
// back, by the same rule: the crash's log 32,563 → 31,073 bytes at 0.08
// and 32,294 → 30,804 at 0.32, the redo window 5,428 → 5,257 and 5,505
// → 5,334 bytes, still inside log pages 6 and 7 at both fractions (it
// now begins 1,240 and 894 bytes into page 6, where it began 2,559 and
// 2,213). Every count, LogPages and PrepNS stand. Log2 at 0.32 redoes
// behind its paced prefetch, and with the page boundary at another
// record the log-page read that v8 overlapped with an in-flight
// prefetch no longer is: its stall time rose 0.5 ms on the same 71
// stalls (297.738 → 298.238 ms), and so did its RedoTotalNS (296.7162 →
// 297.2162 ms). With ScanCost.PerPage = 0 every count and time is equal
// on both formats.
var goldenInline = map[string]goldenRow{
	"0.08/Log0": {704178500, 1058500, 4, 170, 30, 0, 0, 140, 162, 9, 0},
	"0.08/Log1": {331078500, 1058500, 4, 170, 30, 89, 6, 45, 74, 6, 65},
	"0.08/SQL1": {354998500, 1058500, 4, 170, 30, 77, 6, 57, 86, 0, 86},
	"0.08/Log2": {120012500, 1058500, 4, 170, 30, 89, 6, 45, 74, 7, 65},
	"0.08/SQL2": {88292500, 1058500, 4, 170, 30, 77, 6, 57, 86, 0, 86},
	"0.32/Log0": {687778200, 1058200, 4, 170, 119, 0, 0, 51, 161, 6, 0},
	"0.32/Log1": {609878200, 1058200, 4, 170, 119, 19, 1, 31, 142, 6, 103},
	"0.32/SQL1": {584598200, 1058200, 4, 170, 119, 19, 1, 31, 142, 0, 142},
	"0.32/Log2": {297216200, 1058200, 4, 170, 119, 19, 1, 31, 142, 7, 103},
	"0.32/SQL2": {158058200, 1058200, 4, 170, 119, 19, 1, 31, 142, 0, 142},
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

// TestDecodeWidthSameVirtualTime: the decode workers run beside the
// passes, so only where a pass pays for its log pages keeps virtual
// time exact. A one-shard crash whose redo window spans several log
// segments, recovered inline by every method at decode widths 1, 2 and
// 8 (GOMAXPROCS), must give the same metrics to the nanosecond — prep
// and redo time, log pages, every screening, fetch and prefetch count —
// wall-clock times and the decode width aside.
func TestDecodeWidthSameVirtualTime(t *testing.T) {
	cfg := shardedConfig(1)
	cfg.OpenTxns, cfg.OpenTxnUpdates = 3, 5
	// A 2.75 MB window over three 1 MiB segments.
	cfg.CrashAfterCheckpoints = 1
	cfg.UpdatesAfterLastCkpt = 120_000
	res, err := BuildCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	virtual := func(width int, m core.Method) core.Metrics {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		_, met, err := core.Recover(res.Crash, m, core.Options{})
		if err != nil {
			t.Fatalf("%v at decode width %d: %v", m, width, err)
		}
		if met.DecodeSegments < 2*3 || met.DecodeWorkers != width {
			t.Fatalf("%v: two passes read %d segments on %d workers; want at least 3 a pass on %d",
				m, met.DecodeSegments, met.DecodeWorkers, width)
		}
		v := *met
		v.WallRedoTime, v.WallUndoTime, v.WallTotalTime = 0, 0, 0
		v.DecodeWorkers = 0
		return v
	}
	for _, m := range core.Methods() {
		want := virtual(1, m)
		for _, w := range []int{2, 8} {
			if got := virtual(w, m); got != want {
				t.Errorf("%v: decode width %d:\n got  %+v\n want %+v (width 1)", m, w, got, want)
			}
		}
	}
}
