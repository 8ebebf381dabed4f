package core

import (
	"fmt"
	"testing"
	"time"

	"logrec/internal/engine"
)

// BenchmarkRecover recovers one fixed crash per iteration under each
// method: 4,000 committed two-update transactions and one loser over a
// cached 2,000-row table, never checkpointed, so the redo window is the
// whole log. Allocations are reported with the time, so the per-record
// cost of the transaction table and the replay loop shows in both.
//
// The groups after the methods sweep one dimension each with Log2, in
// wall-clock time (on the sim device that is replay CPU: its IO costs
// only virtual time):
//
//   - redo/w{0,1,2,4}: Options.RedoWorkers over the same crash;
//   - window/3seg/{Log2,SQL2}/w{0,2}: a crash of 80,000 transactions
//     (≈31 B of log each), whose window spans three log segments, so
//     the passes are fed by decode workers (every other crash here
//     fits one segment and decodes inline);
//   - undo/w{1,2,4}: Options.UndoWorkers over a crash with eight
//     long-running losers whose pages the committed traffic evicted;
//   - shards/{1,2,4}: the same traffic on engines of that many shards;
//   - device/{sim,file}: a smaller crash on each device; on the file
//     device recovery reads and writes real files.
//
// Every case checks its first recovery against the committed-state
// oracle, outside the timer. redo-ns/op and undo-ns/op are the wall
// times of the two passes.
func BenchmarkRecover(b *testing.B) {
	cfg := testConfig(3000)
	cs, om := buildCrash(b, cfg, 2000, 4000, 2, 1<<30, 7, true)
	for _, m := range Methods() {
		recoverCase(b, m.String(), cs, om, m, Options{})
	}
	b.Run("redo", func(b *testing.B) {
		for _, w := range []int{0, 1, 2, 4} {
			recoverCase(b, fmt.Sprintf("w%d", w), cs, om, Log2, Options{RedoWorkers: w})
		}
	})
	b.Run("window", func(b *testing.B) {
		wcs, wom := buildCrash(b, cfg, 2000, 80000, 2, 1<<30, 7, true)
		if n := wcs.Log.Segments(); n < 3 {
			b.Fatalf("the crash's window spans %d log segments (%d bytes), want at least 3", n, wcs.Log.FlushedLSN())
		}
		b.Run("3seg", func(b *testing.B) {
			for _, m := range []Method{Log2, SQL2} {
				b.Run(m.String(), func(b *testing.B) {
					for _, w := range []int{0, 2} {
						recoverCase(b, fmt.Sprintf("w%d", w), wcs, wom, m, Options{RedoWorkers: w})
					}
				})
			}
		})
	})
	b.Run("undo", func(b *testing.B) {
		ucs, uom := buildCrashWithLosers(b, testConfig(16), 2000, 400, 8, 8, loserSpec{updates: 25}, 7)
		for _, w := range []int{1, 2, 4} {
			recoverCase(b, fmt.Sprintf("w%d", w), ucs, uom, Log2, Options{UndoWorkers: w})
		}
	})
	b.Run("shards", func(b *testing.B) {
		for _, n := range []int{1, 2, 4} {
			scfg := cfg
			scfg.Shards, scfg.KeySpan = n, 2000
			scs, som := buildCrash(b, scfg, 2000, 4000, 2, 1<<30, 7, true)
			recoverCase(b, fmt.Sprint(n), scs, som, Log2, Options{})
		}
	})
	b.Run("device", func(b *testing.B) {
		// Every file-device commit is an fsync: 500 transactions keep
		// the build short on a real disk.
		scs, som := buildCrash(b, cfg, 2000, 500, 8, 1<<30, 7, true)
		recoverCase(b, "sim", scs, som, Log2, Options{})
		fcfg := cfg
		fcfg.Device, fcfg.Dir = engine.DeviceFile, b.TempDir()
		fcs, fom := buildCrash(b, fcfg, 2000, 500, 8, 1<<30, 7, true)
		recoverCase(b, "file", fcs, fom, Log2, Options{})
	})
}

// recoverCase is one sub-benchmark: b.N recoveries of cs by m at opt.
// The case's first recovery is checked against the oracle with the
// timer stopped, once, though the framework runs the function more
// than once to size b.N.
func recoverCase(b *testing.B, name string, cs *engine.CrashState, om oracle, m Method, opt Options) {
	verified := false
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		var redo, undo time.Duration
		for i := 0; i < b.N; i++ {
			eng, met, err := Recover(cs, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			redo += met.WallRedoTime
			undo += met.WallUndoTime
			if !verified {
				b.StopTimer()
				verifyRecovered(b, m, eng, om)
				verified = true
				b.StartTimer()
			}
		}
		n := float64(b.N)
		b.ReportMetric(float64(redo.Nanoseconds())/n, "redo-ns/op")
		b.ReportMetric(float64(undo.Nanoseconds())/n, "undo-ns/op")
	})
}
