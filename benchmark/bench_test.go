package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testScale shrinks a run to ≈10k rows and a fraction of a second.
const testScale = 100

func testOptions(t *testing.T, workload string, seed int64, traced bool) options {
	t.Helper()
	s, err := findSpec(workload)
	if err != nil {
		t.Fatal(err)
	}
	return options{spec: s, seed: seed, seconds: 18, scale: testScale, traced: traced}
}

// One run of each workload and pass serves every test that only reads
// results.
var sharedRuns = map[string]*result{}

func sharedRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	key := fmt.Sprint(workload, traced)
	if r, ok := sharedRuns[key]; ok {
		return r
	}
	r, err := run(testOptions(t, workload, 1, traced))
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	sharedRuns[key] = r
	return r
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program's tables must name the same
// workloads and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, gated) {
		t.Errorf("end_to_end differs:\n json: %+v\n program: %+v", b.EndToEnd, gated)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json: %+v\n program: %+v", b.PerLayer, perLayer)
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(b.PerLayer))
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
}

// Satellite (a): every workload's result line holds exactly the metrics
// BENCHMARK.json names, each with its unit and a finite value, and the
// untraced pass measures all eight end-to-end metrics, never as zero.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			r := sharedRun(t, s.Name, traced)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", s.Name, traced, r.Correct, r.Failed, r.Attempted)
			}
			rec := r.record()
			defs, listed := endToEnd, gated
			if traced {
				defs, listed = perLayer, perLayer
			}
			if line := rec.contract(); len(line.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: %d metrics in the result line, %d named", s.Name, traced, len(line.Metrics), len(listed))
			}
			for _, d := range listed {
				if _, ok := rec.contract().Metrics[d.Name]; !ok {
					t.Errorf("%s: %s not in the result line", s.Name, d.Name)
				}
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", s.Name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", s.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", s.Name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want above zero", s.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// Satellite (b): with one client the engine sees the same calls in the
// same order, so everything that is counted rather than timed repeats
// exactly.
func TestCountsRepeatExactly(t *testing.T) {
	exact := []string{"buffer.hit_ratio", "buffer.misses_per_op", "wal.records_per_op", "tracker.delta_recs", "dpt.size.log2"}
	for _, m := range []string{"log0", "log1", "log2", "sql1", "sql2"} {
		exact = append(exact, "core.redo_virtual_s."+m)
	}
	for _, m := range []string{"log2", "sql2"} {
		exact = append(exact, "core.redo_records."+m, "core.applied."+m, "core.skipped_dpt."+m, "core.clrs_written."+m)
	}
	for _, name := range []string{"oltp_cached", "update_spill"} {
		a := sharedRun(t, name, true)
		b, err := run(testOptions(t, name, 1, true))
		if err != nil {
			t.Fatal(err)
		}
		if x, y := a.EndToEnd["log_bytes_per_op"], b.EndToEnd["log_bytes_per_op"]; x != y {
			t.Errorf("%s: log_bytes_per_op = %v, then %v", name, x.Value, y.Value)
		}
		for _, m := range exact {
			if a.PerLayer[m] != b.PerLayer[m] {
				t.Errorf("%s: %s = %v, then %v", name, m, a.PerLayer[m].Value, b.PerLayer[m].Value)
			}
		}
	}
}

// Satellite (c): the seed decides the key stream and nothing else
// does.
func TestSeedChangesKeyStream(t *testing.T) {
	draw := func(seed int64) []uint64 {
		opt := testOptions(t, "oltp_cached", seed, false)
		gen, err := newGenerator(opt, opt.spec.mix, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = gen.Next().Key
		}
		return keys
	}
	if !reflect.DeepEqual(draw(1), draw(1)) {
		t.Error("the same seed drew different keys")
	}
	if reflect.DeepEqual(draw(1), draw(2)) {
		t.Error("seeds 1 and 2 drew the same keys")
	}
}

// Satellite (d): a wrong digest must fail the run, not pass silently.
func TestCorruptedDigestFailsTheRun(t *testing.T) {
	opt := testOptions(t, "update_spill", 1, false)
	opt.corruptDigest = true
	r, err := run(opt)
	if err == nil || r == nil || r.Correct {
		t.Fatalf("run with a corrupted digest: result %+v, error %v; want correct=false and an error", r, err)
	}
	if !strings.Contains(err.Error(), "digest") {
		t.Errorf("error %q does not name the digest", err)
	}
}

// The traced pass's own assertions hold at test scale too: the
// workloads separate the layers as README.md says.
func TestWorkloadsSeparateLayers(t *testing.T) {
	v := func(workload, metric string) float64 { return sharedRun(t, workload, true).PerLayer[metric].Value }
	if got := v("update_spill", "buffer.misses_per_op"); got <= 0.05 {
		t.Errorf("update_spill misses/op = %v, want above 0.05", got)
	}
	if got := v("oltp_cached", "storage.page_reads"); got != 0 {
		t.Errorf("oltp_cached read %v pages from storage, want 0", got)
	}
	scan := sharedRun(t, "read_scan_2c", false).EndToEnd["log_bytes_per_op"].Value
	oltp := sharedRun(t, "oltp_cached", false).EndToEnd["log_bytes_per_op"].Value
	if scan >= oltp/10 {
		t.Errorf("read_scan_2c logs %v B/op, oltp_cached %v: want under a tenth", scan, oltp)
	}
	if got := v("read_scan_2c", "exec.scan_us"); got <= 0 {
		t.Errorf("read_scan_2c exec.scan_us = %v, want scans traced", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS, heap []float64) string {
		path := filepath.Join(dir, name)
		for i := range opsPerS {
			rec := runRecord{Workload: "oltp_cached", Seed: int64(i), contractLine: contractLine{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"ops_per_s": {opsPerS[i], "op/s"}, "live_heap_mb": {heap[i], "MB"}, "txn_p50_ms": {1 + float64(i%2), "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100, 102}, []float64{500, 500, 501, 500, 500})
	b := write("b.jsonl", []float64{60, 61, 59, 60, 62}, []float64{500, 501, 500, 500, 500})
	var out bytes.Buffer
	ok, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a 40 % drop in ops_per_s did not fail the comparison")
	}
	for _, want := range []string{
		"oltp_cached   ops_per_s", "FAIL",
		"UNRESOLVED (spread above bound)", // txn_p50_ms alternates 1, 2
		"UNRESOLVED (no runs)",            // the other workloads
		"1 failed",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	if ok, err := compareFiles(&out, a, a); err != nil || !ok {
		t.Errorf("a set compared with itself: ok=%v err=%v", ok, err)
	}
}
