// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5.3, Appendices B-D). Each benchmark reports the redo
// time in *virtual* milliseconds (vms) — the deterministic simulated
// quantity the paper's figures plot — rather than the wall-clock
// ns/op, which only measures how fast the simulator itself runs.
//
// The experiments run at 1/4 of the paper-proportional default scale so
// `go test -bench=.` completes quickly; set LOGREC_BENCH_SCALE=1 for
// the full-scale sweep (cmd/redobench prints the same numbers with
// nicer formatting).
package logrec_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"logrec"
	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/exec"
	"logrec/internal/harness"
	"logrec/internal/tracker"
)

func benchScale() int {
	if s := os.Getenv("LOGREC_BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return 4
}

// crashCache memoises built crashes per configuration key so each
// sub-benchmark replays an identical crash without rebuilding it.
var (
	crashMu    sync.Mutex
	crashCache = map[string]*harness.CrashResult{}
)

func getCrash(b *testing.B, key string, build func() (harness.Config, error)) (*harness.CrashResult, harness.Config) {
	b.Helper()
	crashMu.Lock()
	defer crashMu.Unlock()
	cfg, err := build()
	if err != nil {
		b.Fatal(err)
	}
	if res, ok := crashCache[key]; ok {
		return res, cfg
	}
	res, err := harness.BuildCrash(cfg)
	if err != nil {
		b.Fatal(err)
	}
	crashCache[key] = res
	return res, cfg
}

func baseConfig() harness.Config {
	return harness.DefaultConfig().Scaled(benchScale())
}

// reportRecovery runs one recovery per iteration and reports the
// virtual redo time plus IO counts.
func reportRecovery(b *testing.B, res *harness.CrashResult, m core.Method, opt core.Options) {
	b.Helper()
	var last *core.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, err := harness.RunRecovery(res, m, opt)
		if err != nil {
			b.Fatal(err)
		}
		last = met
	}
	b.StopTimer()
	b.ReportMetric(last.RedoTotal.Milliseconds(), "vms-redo")
	b.ReportMetric(float64(last.DataPageFetches), "data-fetches")
	b.ReportMetric(float64(last.IndexPageFetches), "index-fetches")
	b.ReportMetric(float64(last.DPTSize), "dpt-entries")
}

// BenchmarkFigure2aRedoTime regenerates Figure 2(a): redo time for all
// five methods across the cache-size sweep.
func BenchmarkFigure2aRedoTime(b *testing.B) {
	for _, frac := range harness.DefaultCacheFractions() {
		frac := frac
		res, cfg := getCrash(b, fmt.Sprintf("fig2-%v", frac), func() (harness.Config, error) {
			return baseConfig().WithCacheFraction(frac), nil
		})
		opt := core.DefaultOptions(cfg.Engine)
		for _, m := range logrec.Methods() {
			m := m
			b.Run(fmt.Sprintf("cache=%02.0f%%/%v", frac*100, m), func(b *testing.B) {
				reportRecovery(b, res, m, opt)
			})
		}
	}
}

// BenchmarkFigure2bDirtyPct regenerates Figure 2(b): the dirty fraction
// of the cache at the crash, per cache size.
func BenchmarkFigure2bDirtyPct(b *testing.B) {
	for _, frac := range harness.DefaultCacheFractions() {
		frac := frac
		b.Run(fmt.Sprintf("cache=%02.0f%%", frac*100), func(b *testing.B) {
			res, _ := getCrash(b, fmt.Sprintf("fig2-%v", frac), func() (harness.Config, error) {
				return baseConfig().WithCacheFraction(frac), nil
			})
			for i := 0; i < b.N; i++ {
				_ = res.DirtyPct()
			}
			b.ReportMetric(res.DirtyPct(), "dirty-pct")
			b.ReportMetric(float64(res.DirtyAtCrash), "dirty-pages")
		})
	}
}

// BenchmarkFigure2cLogRecords regenerates Figure 2(c): ∆- and BW-log
// records seen by the prep pass, per cache size.
func BenchmarkFigure2cLogRecords(b *testing.B) {
	for _, frac := range harness.DefaultCacheFractions() {
		frac := frac
		b.Run(fmt.Sprintf("cache=%02.0f%%", frac*100), func(b *testing.B) {
			res, cfg := getCrash(b, fmt.Sprintf("fig2-%v", frac), func() (harness.Config, error) {
				return baseConfig().WithCacheFraction(frac), nil
			})
			opt := core.DefaultOptions(cfg.Engine)
			var met *core.Metrics
			for i := 0; i < b.N; i++ {
				m, err := harness.RunRecovery(res, core.Log1, opt)
				if err != nil {
					b.Fatal(err)
				}
				met = m
			}
			b.ReportMetric(float64(met.DeltaSeen), "delta-records")
			b.ReportMetric(float64(met.BWSeen), "bw-records")
		})
	}
}

// BenchmarkFigure3CheckpointInterval regenerates Figure 3 (Appendix C):
// redo time as the checkpoint interval grows 1×, 5×, 10×.
func BenchmarkFigure3CheckpointInterval(b *testing.B) {
	for _, mult := range []int{1, 5, 10} {
		mult := mult
		res, cfg := getCrash(b, fmt.Sprintf("fig3-%d", mult), func() (harness.Config, error) {
			c := baseConfig().WithCacheFraction(0.16)
			c.CheckpointEveryUpdates *= mult
			c.UpdatesAfterLastCkpt *= mult
			if mult > 1 {
				c.CrashAfterCheckpoints = 3
			}
			return c, nil
		})
		opt := core.DefaultOptions(cfg.Engine)
		for _, m := range logrec.Methods() {
			m := m
			b.Run(fmt.Sprintf("interval=x%d/%v", mult, m), func(b *testing.B) {
				reportRecovery(b, res, m, opt)
			})
		}
	}
}

// BenchmarkAppendixBCostModel regenerates Appendix B's validation of
// Equations 1-3: data-page fetches vs the closed-form prediction.
func BenchmarkAppendixBCostModel(b *testing.B) {
	res, cfg := getCrash(b, "fig2-0.16", func() (harness.Config, error) {
		return baseConfig().WithCacheFraction(0.16), nil
	})
	opt := core.DefaultOptions(cfg.Engine)
	for _, m := range []core.Method{core.Log0, core.Log1, core.SQL1} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var met *core.Metrics
			for i := 0; i < b.N; i++ {
				got, err := harness.RunRecovery(res, m, opt)
				if err != nil {
					b.Fatal(err)
				}
				met = got
			}
			var predicted float64
			switch m {
			case core.Log0:
				predicted = float64(met.RedoRecords)
			case core.Log1:
				predicted = float64(met.DPTSize) + float64(met.TailRecords)
			case core.SQL1:
				predicted = float64(met.DPTSize)
			}
			b.ReportMetric(float64(met.DataPageFetches), "data-fetches")
			b.ReportMetric(predicted, "model-predicted")
		})
	}
}

// BenchmarkAppendixDVariants regenerates the Appendix D ablation: Log1
// redo under the three ∆-record fidelity variants.
func BenchmarkAppendixDVariants(b *testing.B) {
	for _, v := range []tracker.Variant{tracker.DeltaStandard, tracker.DeltaPerfect, tracker.DeltaReduced} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			res, cfg := getCrash(b, fmt.Sprintf("appD-%v", v), func() (harness.Config, error) {
				c := baseConfig().WithCacheFraction(0.16)
				c.Engine.DC.Tracker.Variant = v
				return c, nil
			})
			opt := core.DefaultOptions(cfg.Engine)
			var met *core.Metrics
			for i := 0; i < b.N; i++ {
				got, err := harness.RunRecovery(res, core.Log1, opt)
				if err != nil {
					b.Fatal(err)
				}
				met = got
			}
			b.ReportMetric(met.RedoTotal.Milliseconds(), "vms-redo")
			b.ReportMetric(float64(met.DPTSize), "dpt-entries")
			b.ReportMetric(float64(res.LogBytes), "log-bytes")
		})
	}
}

// BenchmarkPacedRedo is Log2's inline redo over a cached window: a
// 200k-row table whose pool holds every page, 40k updates between the
// last checkpoint and the crash. Nearly every page the pacer prefetches
// completes long before redo claims it, which is the shape that made a
// per-record walk of the device's unclaimed pages dominate
// `recover_log2_s` on `oltp_cached`; ns/record is wall time per redo
// record, the whole recovery included. Ungated.
func BenchmarkPacedRedo(b *testing.B) {
	res, cfg := getCrash(b, "paced-redo", func() (harness.Config, error) {
		cfg := harness.DefaultConfig()
		cfg.Workload.Rows = 200_000
		cfg.Engine.CachePages = 2 * cfg.DataPages()
		cfg.CrashAfterCheckpoints = 1
		cfg.UpdatesAfterLastCkpt = 40_000
		return cfg, nil
	})
	var recs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, err := harness.RunRecovery(res, core.Log2, core.DefaultOptions(cfg.Engine))
		if err != nil {
			b.Fatal(err)
		}
		recs += met.RedoRecords
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/record")
}

// BenchmarkWorkloadLocality explores Appendix B's locality remark: a
// zipfian workload touches fewer distinct pages, shrinking the DPT and
// redo time relative to the paper's worst-case uniform workload.
func BenchmarkWorkloadLocality(b *testing.B) {
	for _, zipf := range []bool{false, true} {
		zipf := zipf
		name := "uniform"
		if zipf {
			name = "zipf"
		}
		b.Run(name, func(b *testing.B) {
			res, cfg := getCrash(b, "locality-"+name, func() (harness.Config, error) {
				c := baseConfig().WithCacheFraction(0.16)
				if zipf {
					c.Workload.Dist = 1 // workload.Zipf
					c.Workload.ZipfS = 1.2
				}
				return c, nil
			})
			opt := core.DefaultOptions(cfg.Engine)
			reportRecovery(b, res, core.Log1, opt)
		})
	}
}

// loadBenchSchema is the row benchmark/ loads: the key
// mirrored into a column, a payload string, a version counter and a
// flag. ≈68 B encoded.
var loadBenchSchema = exec.MustSchema(
	exec.Column{Name: "k", Type: exec.TUint64},
	exec.Column{Name: "payload", Type: exec.TString},
	exec.Column{Name: "ver", Type: exec.TUint64},
	exec.Column{Name: "flag", Type: exec.TBool},
)

// BenchmarkSchemaEncode is one row of loadBenchSchema through
// Schema.Encode — what every loaded row and every exec.Update pays. The
// caller boxing its key is one of the allocations reported; the row is
// the other.
func BenchmarkSchemaEncode(b *testing.B) {
	payload := "payload-0000abcd-0000000000000000"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		buf, err := loadBenchSchema.Encode(k, payload, uint64(0), k%16 == 0)
		if err != nil {
			b.Fatal(err)
		}
		encodeSink = buf
	}
}

var encodeSink []byte

// BenchmarkEngineLoad measures Engine.Load — bulk build, flush, first
// checkpoint — on a fully cached 200k-row table, the set-up every
// experiment starts from. pool-reqs/row is the buffer pool's Get
// traffic during the load: ≈3 per row when the load was row-at-a-time
// inserts, ≈0 for the bulk build. B/row is the bytes allocated per
// row, page images included: the flush hands each built page to the
// simulated disk without a copy. Ungated; `setup_s` in benchmark/ is
// the gate.
func BenchmarkEngineLoad(b *testing.B) {
	const rows = 200_000
	payload := []byte("payload-00000000-0000000000000000")
	valFn := func(k uint64) []byte {
		for i, v := 15, k; i >= 8; i, v = i-1, v>>4 {
			payload[i] = "0123456789abcdef"[v&15]
		}
		buf, err := loadBenchSchema.Encode(k, string(payload), uint64(0), k%16 == 0)
		if err != nil {
			b.Fatal(err)
		}
		return buf
	}
	var poolReqs int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		cfg := engine.DefaultConfig()
		cfg.CachePages = 8192
		eng, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Load(rows, valFn); err != nil {
			b.Fatal(err)
		}
		st := eng.DC.Pool().Stats()
		poolReqs += st.Hits + st.Misses
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/rows, "allocs/row")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/rows, "B/row")
	b.ReportMetric(float64(poolReqs)/float64(b.N)/rows, "pool-reqs/row")
}
