package main

import (
	"fmt"

	"logrec/internal/workload"
)

// Full-scale sizes shared by every workload; -scale divides them.
const (
	tableRows = 1_000_000
	// sliceSeconds is what one slice of a workload's fixed work takes on
	// the 2-core reference machine; --seconds is converted to a slice
	// count with it (18 s → 60 slices).
	sliceSeconds = 0.3
	// traceEvery: the traced pass records spans for every 8th
	// transaction of each client.
	traceEvery = 8
	// Crash step: losers left open, and updates in each.
	loserTxns   = 8
	loserUpdate = 50
	// probeCalls is how many calls each layer probe times.
	probeCalls = 200_000
	// recoveryReps is how often Log2 and SQL2 are each repeated
	// in the untraced pass; setupReps how often set-up is.
	recoveryReps = 7
	setupReps    = 5
)

// spec is one workload: the traffic, the cache size relative to the
// table, and the checkpoint cadence that fixes the redo window.
type spec struct {
	Name string
	Why  string

	clients    int
	opsPerTxn  int
	mix        workload.Mix
	dist       workload.Distribution
	maxScanLen int
	// poolPages is the buffer pool capacity; the table is ≈25k pages.
	poolPages int
	// txnsPerSlice is the fixed work of one slice, per client.
	txnsPerSlice int
	// ckptEvery: client 0 checkpoints every ckptEvery slices, counted
	// back from the end of the phase.
	ckptEvery int
}

var specs = []spec{
	{
		Name:    "oltp_cached",
		Why:     "1 client, zipfian 50/50 Get/Update on a fully cached table: tc locks, btree modify, wal append and group commit do the work; redo replays many records per hot page",
		clients: 1, opsPerTxn: 4,
		mix:  workload.Mix{Read: 0.5, Update: 0.5},
		dist: workload.Zipf, poolPages: 40_000,
		txnsPerSlice: 10_000, ckptEvery: 12,
	},
	{
		Name:    "read_scan_2c",
		Why:     "2 clients, read-only 80/20 Get/filtered short Scan, cached: the read side of tc/btree/buffer under the shared plane mutex, exec decode heavy, wal nearly idle; recovery is log decode only",
		clients: 2, opsPerTxn: 4,
		mix:  workload.Mix{Read: 0.8, Scan: 0.2},
		dist: workload.Zipf, maxScanLen: 50, poolPages: 40_000,
		txnsPerSlice: 11_000, ckptEvery: 30,
	},
	{
		Name:    "update_spill",
		Why:     "1 client, the paper's 10-update transactions on uniform keys with a pool of 1/8 of the table: buffer miss/evict/write-back, storage and delta/BW logging; redo is index traversal plus DPT screening",
		clients: 1, opsPerTxn: 10,
		mix:  workload.Mix{Update: 1},
		dist: workload.Uniform, poolPages: 3_000,
		txnsPerSlice: 2_500, ckptEvery: 12,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric. BENCHMARK.json repeats these tables;
// bench_test.go keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of the untraced pass; every workload reports
// all of them. Bound is the relative worsening of the median of several
// runs that counts as a regression; -compare judges all eight by it, and
// calls a pairing unresolved where ten runs spread (interquartile ÷
// median) by more than the bound.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.10},
	{"log_bytes_per_op", "B/op", lower, 0.02},
	{"live_heap_mb", "MB", lower, 0.02},
	{"ops_per_s", "op/s", higher, 0.10},
	{"txn_p50_ms", "ms", lower, 0.10},
	{"txn_p99_ms", "ms", lower, 0.10},
	{"recover_log2_s", "s", lower, 0.10},
	{"recover_sql2_s", "s", lower, 0.10},
}

// gated are the end-to-end metrics BENCHMARK.json lists as end_to_end,
// which the driver holds every later change to, and the only ones in the
// untraced pass's result line. The driver takes a benchmark only if ten
// runs of every listed metric spread by no more than its bound. On the
// shared 2-core reference machine the five timed metrics spread 0.03–0.10
// in a quiet half hour and up to 0.17 in a drifting one (README.md,
// "Reference numbers"), and the issue allows no bound above 0.10; so
// BENCHMARK.json lists them with the per-layer metrics, where the traced
// pass reports them as driver.phase_ops_per_s, driver.txn_p50_ms,
// driver.txn_p99_ms, core.recover_s.log2 and core.recover_s.sql2.
var gated = endToEnd[:3]

// perLayer are the traced pass's metrics, prefixed with the module
// (layer) they measure. They are diagnostics and carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Median span per call inside traced transactions.
		{Name: "exec.get_us", Unit: "us", Better: lower},
		{Name: "exec.update_us", Unit: "us", Better: lower},
		{Name: "exec.scan_us", Unit: "us", Better: lower},
		{Name: "tc.begin_us", Unit: "us", Better: lower},
		{Name: "tc.commit_us", Unit: "us", Better: lower},
		// Probes, nested: exec.get ⊃ tc.read ⊃ dc.read ⊃ btree.search ⊃
		// buffer.get_hit, so differences are self times.
		{Name: "exec.codec_encode_ns", Unit: "ns", Better: lower},
		{Name: "exec.codec_decode_ns", Unit: "ns", Better: lower},
		{Name: "exec.get_ns", Unit: "ns", Better: lower},
		{Name: "tc.read_ns", Unit: "ns", Better: lower},
		{Name: "tc.lock_ns", Unit: "ns", Better: lower},
		{Name: "tc.plane_busy_share", Unit: "ratio", Better: lower},
		{Name: "tc.lock_conflicts", Unit: "count", Better: lower},
		{Name: "tc.commits", Unit: "count", Better: higher},
		{Name: "tc.aborts", Unit: "count", Better: lower},
		{Name: "dc.read_ns", Unit: "ns", Better: lower},
		{Name: "btree.search_ns", Unit: "ns", Better: lower},
		{Name: "btree.pages_per_lookup", Unit: "pages", Better: lower},
		{Name: "buffer.get_hit_ns", Unit: "ns", Better: lower},
		{Name: "buffer.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "buffer.misses_per_op", Unit: "1/op", Better: lower},
		{Name: "buffer.evictions", Unit: "count", Better: lower},
		{Name: "buffer.dirty_evictions", Unit: "count", Better: lower},
		{Name: "buffer.flushes", Unit: "count", Better: lower},
		{Name: "buffer.log_forces", Unit: "count", Better: lower},
		{Name: "buffer.dirty_fraction_at_crash", Unit: "ratio", Better: lower},
		{Name: "storage.page_reads", Unit: "count", Better: lower},
		{Name: "storage.page_writes", Unit: "count", Better: lower},
		{Name: "storage.syncs", Unit: "count", Better: lower},
		{Name: "storage.read_ns", Unit: "ns", Better: lower},
		{Name: "wal.append_ns", Unit: "ns", Better: lower},
		{Name: "wal.bytes_per_update_rec", Unit: "B", Better: lower},
		{Name: "wal.records_per_op", Unit: "1/op", Better: lower},
		{Name: "wal.flushes", Unit: "count", Better: lower},
		{Name: "wal.records_per_flush", Unit: "count", Better: higher},
		{Name: "wal.commits_per_flush", Unit: "count", Better: higher},
		{Name: "wal.decode_ns_per_rec", Unit: "ns", Better: lower},
		{Name: "tracker.delta_recs", Unit: "count", Better: lower},
		{Name: "tracker.bw_recs", Unit: "count", Better: lower},
		{Name: "tracker.log_byte_share", Unit: "ratio", Better: lower},
		{Name: "engine.load_s", Unit: "s", Better: lower},
		{Name: "engine.checkpoint_s", Unit: "s", Better: lower},
		{Name: "engine.checkpoint_count", Unit: "count", Better: lower},
		{Name: "engine.crash_s", Unit: "s", Better: lower},
	}
	// One recovery of the same crash per method: wall time, and the
	// virtual redo time of the paper's Figure 2 (repeats exactly).
	for _, m := range []string{"log0", "log1", "log2", "sql1", "sql2"} {
		defs = append(defs,
			metricDef{Name: "core.recover_s." + m, Unit: "s", Better: lower},
			metricDef{Name: "core.redo_virtual_s." + m, Unit: "s", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "core.log2_over_sql2", Unit: "ratio", Better: lower},
		metricDef{Name: "core.recover_log2_w2_s", Unit: "s", Better: lower})
	// Phase and counter breakdown of the two headline methods.
	for _, m := range []string{"log2", "sql2"} {
		for _, d := range recoveryDetail {
			d.Name += "." + m
			defs = append(defs, d)
		}
	}
	return append(defs,
		metricDef{Name: "driver.trace_overhead_share", Unit: "ratio", Better: lower},
		metricDef{Name: "driver.phase_ops_per_s", Unit: "op/s", Better: higher},
		metricDef{Name: "driver.slice_ops_per_s_min", Unit: "op/s", Better: higher},
		metricDef{Name: "driver.txn_p50_ms", Unit: "ms", Better: lower},
		metricDef{Name: "driver.txn_p99_ms", Unit: "ms", Better: lower},
		metricDef{Name: "driver.txn_p999_ms", Unit: "ms", Better: lower},
		metricDef{Name: "driver.commit_2w_ops_per_s", Unit: "op/s", Better: higher},
		metricDef{Name: "driver.peak_rss_mb", Unit: "MB", Better: lower})
}

var recoveryDetail = []metricDef{
	{Name: "core.fork_s", Unit: "s", Better: lower},
	{Name: "core.prep_s", Unit: "s", Better: lower},
	{Name: "core.redo_s", Unit: "s", Better: lower},
	{Name: "core.undo_s", Unit: "s", Better: lower},
	{Name: "core.redo_records", Unit: "count", Better: lower},
	{Name: "core.applied", Unit: "count", Better: lower},
	{Name: "core.skipped_dpt", Unit: "count", Better: higher},
	{Name: "core.skipped_rlsn", Unit: "count", Better: higher},
	{Name: "core.skipped_plsn", Unit: "count", Better: lower},
	{Name: "core.data_page_fetches", Unit: "count", Better: lower},
	{Name: "core.index_page_fetches", Unit: "count", Better: lower},
	{Name: "core.log_pages_read", Unit: "count", Better: lower},
	{Name: "core.prefetch_hits", Unit: "count", Better: higher},
	{Name: "core.stalls", Unit: "count", Better: lower},
	{Name: "core.clrs_written", Unit: "count", Better: lower},
	{Name: "core.losers_undone", Unit: "count", Better: lower},
	{Name: "core.redo_ns_per_record", Unit: "ns", Better: lower},
	{Name: "dpt.size", Unit: "pages", Better: lower},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a pass's values; units come from the tables.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.values[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

// complete reports the first table metric the pass did not set.
func (s *metricSet) complete() error {
	for _, d := range s.defs {
		if _, ok := s.values[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	return nil
}
