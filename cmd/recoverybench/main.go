// Command recoverybench measures the production-shaped recovery path:
//
//  1. Redo worker sweep — the same crash is recovered at increasing
//     RedoWorkers counts and timed in wall-clock time. On the sim device
//     that time is replay CPU (its IO costs only virtual time); on the
//     file device it includes the real reads. Every run is verified
//     against the committed-state oracle.
//  2. Undo worker sweep — a crash with many long-running loser
//     transactions (whose pages the redo traffic has evicted) is
//     recovered at increasing UndoWorkers counts, measuring parallel
//     undo's wall-clock speedup the same way.
//  3. Checkpoint comparison — the same workload volume is crashed twice,
//     once with live checkpoints and once cold, and recovered in the
//     virtual-time simulation: checkpointing must bound the redo scan
//     (fewer records replayed, less redo time).
//  4. Cross-shard sweep (-shards, replaces the other sweeps) — one
//     engine per shard count over the identical workload, recovered
//     with serial per-shard passes, so the wall-clock comparison
//     isolates the concurrency of the shards recovering in parallel.
//  5. Recovery-SLO mode (-budget, replaces the other sweeps) — for
//     each budget and each device (sim and file): a probe crash
//     measures the device's replay rate, a live sharded engine then
//     with that budget in its Config runs committed session traffic
//     under the Checkpointer, seeded with that rate through its
//     LastRecovery, is crashed with losers in flight, and is
//     recovered with production options. The report sets the measured
//     replay time beside the budget the checkpoints were meant to hold
//     it to.
//
// Nothing here is a gate: the numbers that are gated come from
// benchmark/ (make benchmark), the invariants from go test. These are
// diagnostic sweeps over dimensions benchmark/ has no workload for yet
// (redo/undo width, shard count, the file device, the recovery budget).
//
// The worker sweeps run against an NVMe-class device queue (-channels,
// default 16): on the file device it bounds concurrent prefetch reads,
// on the sim device it shapes only the virtual-time model.
//
// With -device=file the whole pipeline runs against real files instead
// of the simulation: pages in a storage.FileDisk, the WAL a real file
// whose every group-commit force is an fsync, the crash a closed set of
// file handles, and each recovery run a copy of those files reopened —
// so the sweeps report end-to-end wall-clock recovery numbers.
//
// It prints each sweep as a table and writes the same numbers to -out
// as JSON (uploaded by CI as an artifact; nothing parses it).
//
// Usage:
//
//	go run ./cmd/recoverybench                      # full settings
//	go run ./cmd/recoverybench -quick               # CI smoke settings
//	go run ./cmd/recoverybench -device=file -dir /dev/shm/rbench
//	go run ./cmd/recoverybench -shards 1,2,4,8      # cross-shard recovery sweep
//	go run ./cmd/recoverybench -budget 75ms         # recovery-SLO mode (sim + file)
//	go run ./cmd/recoverybench -workers 1,2,4,8,16 -out /tmp/BENCH_recovery.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/harness"
)

type workerResult struct {
	Workers     int     `json:"workers"`
	WallRedoMS  float64 `json:"wall_redo_ms"`
	WallTotalMS float64 `json:"wall_total_ms"`
	RedoRecords int64   `json:"redo_records"`
	Applied     int64   `json:"applied"`
	Speedup     float64 `json:"speedup_vs_1"`
}

type undoResult struct {
	Workers     int     `json:"workers"`
	WallUndoMS  float64 `json:"wall_undo_ms"`
	CLRsWritten int64   `json:"clrs_written"`
	Losers      int     `json:"losers"`
	Speedup     float64 `json:"speedup_vs_1"`
}

type shardResult struct {
	Shards      int     `json:"shards"`
	WallRedoMS  float64 `json:"wall_redo_ms"`
	WallTotalMS float64 `json:"wall_total_ms"`
	RedoRecords int64   `json:"redo_records"`
	Applied     int64   `json:"applied"`
	CLRsWritten int64   `json:"clrs_written"`
	// DecodeUnits is how many log segments the two log passes' decode
	// front-end read.
	DecodeUnits int     `json:"decode_units"`
	Speedup     float64 `json:"speedup_vs_1"`
}

type ckptResult struct {
	ColdRedoRecords int64   `json:"cold_redo_records"`
	CkptRedoRecords int64   `json:"ckpt_redo_records"`
	ColdRedoMS      float64 `json:"cold_redo_ms"` // virtual time (sim) / wall redo time (file)
	CkptRedoMS      float64 `json:"ckpt_redo_ms"` // virtual time (sim) / wall redo time (file)
	RecordRatio     float64 `json:"record_ratio"` // ckpt/cold, lower is better
}

// sloResult is one budget × device run of the recovery-SLO mode: did
// replay-rate-driven checkpointing hold a crash's replay under the
// budget.
type sloResult struct {
	Device              string  `json:"device"`
	BudgetMS            float64 `json:"budget_ms"`
	SeedRateBytesPerSec float64 `json:"seed_rate_bytes_per_sec"`
	TrafficBytes        int64   `json:"traffic_bytes"`
	CheckpointsTaken    int64   `json:"checkpoints_taken"`
	FinalWindowBytes    int64   `json:"final_window_bytes"`
	ReplayMS            float64 `json:"replay_ms"`
	TotalMS             float64 `json:"total_ms"`
	LosersUndone        int     `json:"losers_undone"`
	CLRsWritten         int64   `json:"clrs_written"`
}

type report struct {
	Benchmark   string         `json:"benchmark"`
	Device      string         `json:"device"`
	Method      string         `json:"method"`
	GoMaxProcs  int            `json:"go_max_procs"`
	Scale       int            `json:"scale"`
	Channels    int            `json:"channels"`
	Workers     []workerResult `json:"workers"`
	UndoWorkers []undoResult   `json:"undo_workers"`
	Checkpoint  ckptResult     `json:"checkpoint"`
	Shards      []shardResult  `json:"shards,omitempty"`
	SLO         []sloResult    `json:"slo,omitempty"`
}

func main() {
	var (
		workersFlag = flag.String("workers", "1,2,4,8", "comma-separated redo worker counts to sweep")
		undoFlag    = flag.String("undoworkers", "1,2,4,8", "comma-separated undo worker counts to sweep")
		scale       = flag.Int("scale", 10, "shrink the workload by this factor (see harness.Config.Scaled)")
		channels    = flag.Int("channels", 16, "modeled device queue depth for the worker sweeps (NVMe-class)")
		losers      = flag.Int("losers", 8, "loser transactions left open for the undo sweep")
		loserOps    = flag.Int("loserops", 25, "updates per loser transaction in the undo sweep")
		methodFlag  = flag.String("method", "Log1", "recovery method for the worker sweeps (Log0..SQL2)")
		shardsFlag  = flag.String("shards", "", "comma-separated shard counts: run the cross-shard recovery sweep instead of the worker sweeps (one engine per count, same workload)")
		budgetFlag  = flag.String("budget", "", "comma-separated recovery budgets (e.g. 75ms,250ms): run the recovery-SLO mode instead of the sweeps, on both the sim and file devices")
		deviceFlag  = flag.String("device", "sim", "storage backend: sim (virtual-time IO; wall clock is replay CPU) or file (real files; end-to-end wall clock)")
		dirFlag     = flag.String("dir", "", "working directory for -device=file (default: a fresh temp dir, removed on exit)")
		out         = flag.String("out", "BENCH_recovery.json", "output JSON path")
		quick       = flag.Bool("quick", false, "CI smoke settings (smaller workload)")
	)
	flag.Parse()
	fileMode := *deviceFlag == "file"
	if !fileMode && *deviceFlag != "sim" {
		log.Fatalf("unknown -device %q (want sim or file)", *deviceFlag)
	}
	var workDir string
	if fileMode {
		if *dirFlag != "" {
			// The caller owns an explicitly passed directory: create it
			// if needed but never delete it (it may hold other data).
			workDir = *dirFlag
			if err := os.MkdirAll(workDir, 0o755); err != nil {
				log.Fatal(err)
			}
		} else {
			tmp, err := os.MkdirTemp("", "recoverybench-*")
			if err != nil {
				log.Fatal(err)
			}
			workDir = tmp
			defer os.RemoveAll(tmp)
		}
	}
	// applyDevice points one crash build at its own file-mode directory
	// (sim mode leaves the config untouched).
	applyDevice := func(cfg *harness.Config, sub string) {
		if fileMode {
			cfg.Engine.Device = engine.DeviceFile
			cfg.Engine.Dir = filepath.Join(workDir, sub)
		}
	}
	if *quick {
		// Smoke settings, without clobbering explicitly passed flags.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["scale"] {
			*scale = 20
		}
	}

	parseSweep := func(name, s string) []int {
		var out []int
		haveOne := false
		for _, tok := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 1 {
				log.Fatalf("bad -%s entry %q", name, tok)
			}
			out = append(out, n)
			haveOne = haveOne || n == 1
		}
		if !haveOne {
			// speedup_vs_1 must mean what it says; always measure the
			// 1-worker baseline.
			fmt.Printf("recoverybench: adding %s=1 to the sweep (speedup baseline)\n", name)
			out = append([]int{1}, out...)
		}
		return out
	}
	workers := parseSweep("workers", *workersFlag)
	undoWorkers := parseSweep("undoworkers", *undoFlag)
	method, err := parseMethod(*methodFlag)
	if err != nil {
		log.Fatal(err)
	}

	rep := report{
		Benchmark:  "recovery",
		Device:     *deviceFlag,
		Method:     method.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      *scale,
		Channels:   *channels,
	}
	if fileMode {
		rep.Benchmark = "recovery-file"
	}

	if *budgetFlag != "" {
		var budgets []time.Duration
		for _, tok := range strings.Split(*budgetFlag, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(tok))
			if err != nil || d <= 0 {
				log.Fatalf("bad -budget entry %q", tok)
			}
			budgets = append(budgets, d)
		}
		// SLO mode always runs both devices; the file legs need a
		// directory even when -device was left at the default, and an
		// explicit -dir (e.g. tmpfs in CI) is honored either way.
		dir := workDir
		if dir == "" && *dirFlag != "" {
			dir = *dirFlag
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		if dir == "" {
			tmp, err := os.MkdirTemp("", "recoverybench-slo-*")
			if err != nil {
				log.Fatal(err)
			}
			dir = tmp
			defer os.RemoveAll(tmp)
		}
		rep.Benchmark = "recovery-slo"
		rep.Device = "sim+file"
		runSLO(&rep, budgets, *scale, *channels, method, dir)
		writeReport(&rep, *out)
		return
	}

	if *shardsFlag != "" {
		// Cross-shard mode: one engine per shard count, same workload,
		// serial per-shard passes — the measured parallelism is the
		// concurrent recovery of the shards themselves.
		counts := parseSweep("shards", *shardsFlag)
		rep.Benchmark = "recovery-shards"
		runShardSweep(&rep, counts, *scale, *channels, method, applyDevice)
		writeReport(&rep, *out)
		return
	}

	// Cold crash: only the initial (post-load) checkpoint, then a long
	// update run — the redo window is essentially the whole log, which
	// is what gives the worker sweep enough pages to shard.
	cold := harness.DefaultConfig().Scaled(*scale)
	cold.Engine.Disk.Channels = *channels
	cold.CrashAfterCheckpoints = 0
	cold.UpdatesAfterLastCkpt = 8 * cold.CheckpointEveryUpdates
	applyDevice(&cold, "cold")
	fmt.Printf("recoverybench: building cold crash (rows=%d, redo window ≈%d updates, queue depth %d)\n",
		cold.Workload.Rows, cold.UpdatesAfterLastCkpt, *channels)
	coldRes, err := harness.BuildCrash(cold)
	if err != nil {
		log.Fatalf("building cold crash: %v", err)
	}

	// Redo worker sweep in wall-clock time. Speedups are computed
	// against the 1-worker run (always present in the sweep).
	maxRedoWorkers := 1
	for _, w := range workers {
		if w > maxRedoWorkers {
			maxRedoWorkers = w
		}
		opt := core.DefaultOptions(cold.Engine)
		opt.RedoWorkers = w
		met, err := harness.RunRecovery(coldRes, method, opt)
		if err != nil {
			log.Fatalf("workers=%d: %v", w, err)
		}
		rep.Workers = append(rep.Workers, workerResult{
			Workers:     w,
			WallRedoMS:  float64(met.WallRedoTime.Microseconds()) / 1000,
			WallTotalMS: float64(met.WallTotalTime.Microseconds()) / 1000,
			RedoRecords: met.RedoRecords,
			Applied:     met.Applied,
		})
	}
	var base float64
	for _, r := range rep.Workers {
		if r.Workers == 1 {
			base = r.WallRedoMS
			break
		}
	}
	fmt.Printf("%8s %14s %14s %12s %10s\n", "workers", "wall redo ms", "wall total ms", "redo recs", "speedup")
	for i := range rep.Workers {
		r := &rep.Workers[i]
		if r.WallRedoMS > 0 {
			r.Speedup = base / r.WallRedoMS
		}
		fmt.Printf("%8d %14.2f %14.2f %12d %9.2fx\n",
			r.Workers, r.WallRedoMS, r.WallTotalMS, r.RedoRecords, r.Speedup)
	}

	// Undo worker sweep: long-running losers whose strided pages the
	// redo traffic evicted, so undo's leaf fetches miss the pool. Redo
	// runs at the widest swept width to keep the measured phase hot.
	undoCfg := harness.DefaultConfig().Scaled(*scale)
	undoCfg.Engine.Disk.Channels = *channels
	undoCfg.CrashAfterCheckpoints = 0
	undoCfg.UpdatesAfterLastCkpt = 8 * undoCfg.CheckpointEveryUpdates
	undoCfg.EarlyLosers = true
	undoCfg.OpenTxns = *losers
	undoCfg.OpenTxnUpdates = *loserOps
	applyDevice(&undoCfg, "undo")
	fmt.Printf("building undo crash (%d losers × %d updates)\n", *losers, *loserOps)
	undoRes, err := harness.BuildCrash(undoCfg)
	if err != nil {
		log.Fatalf("building undo crash: %v", err)
	}
	for _, w := range undoWorkers {
		opt := core.DefaultOptions(undoCfg.Engine)
		opt.RedoWorkers = maxRedoWorkers
		opt.UndoWorkers = w
		met, err := harness.RunRecovery(undoRes, method, opt)
		if err != nil {
			log.Fatalf("undo workers=%d: %v", w, err)
		}
		rep.UndoWorkers = append(rep.UndoWorkers, undoResult{
			Workers:     w,
			WallUndoMS:  float64(met.WallUndoTime.Microseconds()) / 1000,
			CLRsWritten: met.CLRsWritten,
			Losers:      met.LosersUndone,
		})
	}
	base = 0
	for _, r := range rep.UndoWorkers {
		if r.Workers == 1 {
			base = r.WallUndoMS
			break
		}
	}
	fmt.Printf("%8s %14s %12s %10s %10s\n", "workers", "wall undo ms", "CLRs", "losers", "speedup")
	for i := range rep.UndoWorkers {
		r := &rep.UndoWorkers[i]
		if r.WallUndoMS > 0 {
			r.Speedup = base / r.WallUndoMS
		}
		fmt.Printf("%8d %14.2f %12d %10d %9.2fx\n",
			r.Workers, r.WallUndoMS, r.CLRsWritten, r.Losers, r.Speedup)
	}

	// Checkpoint comparison: same update volume, with periodic
	// checkpoints vs cold, on the selected device — it measures the
	// scan bound (a record count, device-independent), not parallelism.
	// Times are virtual on the sim device; on the file device the
	// virtual clock never advances for IO, so wall redo time is
	// reported instead.
	ckpt := harness.DefaultConfig().Scaled(*scale)
	ckpt.CrashAfterCheckpoints = 8
	applyDevice(&ckpt, "ckpt")
	fmt.Printf("building checkpointed crash (ckpt every %d updates)\n", ckpt.CheckpointEveryUpdates)
	ckptRes, err := harness.BuildCrash(ckpt)
	if err != nil {
		log.Fatalf("building checkpointed crash: %v", err)
	}
	coldMet, err := harness.RunRecovery(coldRes, method, core.DefaultOptions(cold.Engine))
	if err != nil {
		log.Fatalf("cold serial recovery: %v", err)
	}
	ckptMet, err := harness.RunRecovery(ckptRes, method, core.DefaultOptions(ckpt.Engine))
	if err != nil {
		log.Fatalf("ckpt serial recovery: %v", err)
	}
	rep.Checkpoint = ckptResult{
		ColdRedoRecords: coldMet.RedoRecords,
		CkptRedoRecords: ckptMet.RedoRecords,
		ColdRedoMS:      coldMet.RedoTotal.Milliseconds(),
		CkptRedoMS:      ckptMet.RedoTotal.Milliseconds(),
	}
	timeLabel := "virtual"
	if fileMode {
		timeLabel = "wall"
		rep.Checkpoint.ColdRedoMS = float64(coldMet.WallRedoTime.Microseconds()) / 1000
		rep.Checkpoint.CkptRedoMS = float64(ckptMet.WallRedoTime.Microseconds()) / 1000
	}
	if coldMet.RedoRecords > 0 {
		rep.Checkpoint.RecordRatio = float64(ckptMet.RedoRecords) / float64(coldMet.RedoRecords)
	}
	fmt.Printf("checkpointing: redo records %d → %d (%.1f%%), redo time %.2fms → %.2fms (%s)\n",
		rep.Checkpoint.ColdRedoRecords, rep.Checkpoint.CkptRedoRecords,
		100*rep.Checkpoint.RecordRatio, rep.Checkpoint.ColdRedoMS, rep.Checkpoint.CkptRedoMS, timeLabel)

	writeReport(&rep, *out)
}

func writeReport(rep *report, out string) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// runShardSweep builds one crash per shard count over the identical
// workload and recovers each with serial per-shard passes, so the
// wall-clock comparison isolates cross-shard recovery concurrency.
func runShardSweep(rep *report, counts []int, scale, channels int, method core.Method, applyDevice func(*harness.Config, string)) {
	fmt.Printf("recoverybench: cross-shard sweep %v (serial per-shard passes, %s device)\n", counts, rep.Device)
	for _, n := range counts {
		cfg := harness.DefaultConfig().Scaled(scale)
		cfg.Engine.Disk.Channels = channels
		cfg.Engine.Shards = n
		cfg.CrashAfterCheckpoints = 0
		cfg.UpdatesAfterLastCkpt = 8 * cfg.CheckpointEveryUpdates
		applyDevice(&cfg, fmt.Sprintf("shards-%d", n))
		res, err := harness.BuildCrash(cfg)
		if err != nil {
			log.Fatalf("building shards=%d crash: %v", n, err)
		}
		met, err := harness.RunRecovery(res, method, core.DefaultOptions(cfg.Engine))
		if err != nil {
			log.Fatalf("shards=%d: %v", n, err)
		}
		rep.Shards = append(rep.Shards, shardResult{
			Shards:      n,
			WallRedoMS:  float64(met.WallRedoTime.Microseconds()) / 1000,
			WallTotalMS: float64(met.WallTotalTime.Microseconds()) / 1000,
			RedoRecords: met.RedoRecords,
			Applied:     met.Applied,
			CLRsWritten: met.CLRsWritten,
			DecodeUnits: met.DecodeSegments,
		})
	}
	var base float64
	for _, r := range rep.Shards {
		if r.Shards == 1 {
			base = r.WallTotalMS
			break
		}
	}
	fmt.Printf("%8s %14s %14s %12s %8s %10s\n", "shards", "wall redo ms", "wall total ms", "redo recs", "units", "speedup")
	for i := range rep.Shards {
		r := &rep.Shards[i]
		if r.WallTotalMS > 0 {
			r.Speedup = base / r.WallTotalMS
		}
		fmt.Printf("%8d %14.2f %14.2f %12d %8d %9.2fx\n",
			r.Shards, r.WallRedoMS, r.WallTotalMS, r.RedoRecords, r.DecodeUnits, r.Speedup)
	}
}

// sloConfig builds the probe/live configuration for one SLO device
// leg: a 4-shard engine, so the parallel decode front-end and the
// concurrent per-shard replay are both on the recovery path being
// budgeted.
func sloConfig(scale, channels int, fileMode bool, dir, sub string) harness.Config {
	cfg := harness.DefaultConfig().Scaled(scale)
	cfg.Engine.Disk.Channels = channels
	cfg.Engine.Shards = 4
	cfg.CrashAfterCheckpoints = 0
	cfg.UpdatesAfterLastCkpt = 4 * cfg.CheckpointEveryUpdates
	cfg.OpenTxns = 2
	cfg.OpenTxnUpdates = 6
	if fileMode {
		cfg.Engine.Device = engine.DeviceFile
		cfg.Engine.Dir = filepath.Join(dir, sub)
	}
	return cfg
}

// sloOpts is the production-shaped recovery configuration the SLO mode
// measures: parallel redo and undo, default decode width.
func sloOpts(cfg harness.Config) core.Options {
	opt := core.DefaultOptions(cfg.Engine)
	opt.RedoWorkers = 4
	opt.UndoWorkers = 2
	return opt
}

// runSLO is the recovery-SLO mode: per device, measure the replay rate
// with a probe recovery, then for each budget run a live engine under
// the Checkpointer, crash it, and report the measured replay beside the
// budget.
func runSLO(rep *report, budgets []time.Duration, scale, channels int, method core.Method, dir string) {
	for _, dev := range []string{"sim", "file"} {
		fileMode := dev == "file"
		probeCfg := sloConfig(scale, channels, fileMode, dir, "slo-probe")
		fmt.Printf("recoverybench: [%s] building SLO probe crash (rows=%d, 4 shards)\n", dev, probeCfg.Workload.Rows)
		probeRes, err := harness.BuildCrash(probeCfg)
		if err != nil {
			log.Fatalf("[%s] building SLO probe crash: %v", dev, err)
		}
		probeEng, probeMet, err := core.Recover(probeRes.Crash, method, sloOpts(probeCfg))
		if err != nil {
			log.Fatalf("[%s] SLO probe recovery: %v", dev, err)
		}
		probe := probeEng.LastRecovery
		fmt.Printf("  probe replay rate: %.2f MB/s (%d bytes replayed)\n", probe.ReplayBytesPerSec/1e6, probeMet.RedoWindowBytes)
		for _, b := range budgets {
			rep.SLO = append(rep.SLO, runOneSLO(dev, b, probe, scale, channels, fileMode, method, dir))
		}
	}
}

// runOneSLO runs one live engine with the budget under the
// Checkpointer, its replay rate seeded from the probe's recovery,
// crashes it with losers in flight, and recovers it with the production
// parallel options to report the budget outcome.
func runOneSLO(dev string, budget time.Duration, probe *engine.RecoveryStats, scale, channels int, fileMode bool, method core.Method, dir string) sloResult {
	cfg := sloConfig(scale, channels, fileMode, dir, fmt.Sprintf("slo-%dms", budget.Milliseconds()))
	ecfg := cfg.Engine
	ecfg.RecoveryBudget = budget
	eng, err := engine.New(ecfg)
	if err != nil {
		log.Fatalf("[%s] budget=%v: %v", dev, budget, err)
	}
	rows := cfg.Workload.Rows
	pad := strings.Repeat("x", 64)
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("slo-initial-%08d-%s", k, pad))
	}); err != nil {
		log.Fatalf("[%s] budget=%v load: %v", dev, budget, err)
	}
	eng.LastRecovery = probe
	mgr := eng.NewSessionManager(0)
	ckpt, err := eng.StartCheckpointer(mgr)
	if err != nil {
		log.Fatalf("[%s] budget=%v: %v", dev, budget, err)
	}

	// Traffic target: several budget-widths of log, so holding the SLO
	// forces multiple budget-triggered checkpoints; capped to bound the
	// bench's runtime when the device's replay rate is huge.
	seed := probe.ReplayBytesPerSec
	target := int64(seed * budget.Seconds() * 6)
	if target < 1<<20 {
		target = 1 << 20
	}
	if target > 24<<20 {
		target = 24 << 20
	}
	start := eng.Log.EndLSN()
	const clients = 4
	// Each client owns a disjoint slice of [2000, rows): 2PL means
	// overlapping hot keys would abort the bench, not measure it.
	span := (rows - 2000) / clients
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			base := uint64(2000 + c*span)
			val := []byte(fmt.Sprintf("slo-c%d-%s", c, strings.Repeat("y", 96)))
			for i := 0; int64(eng.Log.EndLSN()-start) < target; i++ {
				if err := sess.Begin(); err != nil {
					errCh <- err
					return
				}
				for u := 0; u < 3; u++ {
					k := base + uint64((i*31+u*7)%span)
					if err := sess.Update(ecfg.TableID, k, val); err != nil {
						errCh <- err
						return
					}
				}
				if err := sess.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		log.Fatalf("[%s] budget=%v traffic: %v", dev, budget, err)
	}
	traffic := int64(eng.Log.EndLSN() - start)

	// Two losers left in flight (key-disjoint from each other and from
	// the committed traffic, which steered above key 2000), so the
	// recovery being timed has an undo pass.
	for l := 0; l < 2; l++ {
		loser := mgr.NewSession()
		if err := loser.Begin(); err != nil {
			log.Fatalf("[%s] budget=%v loser begin: %v", dev, budget, err)
		}
		for u := 0; u < 6; u++ {
			k := uint64(l*997 + u*83)
			if err := loser.Update(ecfg.TableID, k, []byte("slo-loser")); err != nil {
				log.Fatalf("[%s] budget=%v loser update: %v", dev, budget, err)
			}
		}
	}
	eng.TC.SendEOSL()
	ckpt.Stop()
	st := ckpt.Stats()
	if st.LastErr != nil {
		log.Fatalf("[%s] budget=%v checkpointer: %v", dev, budget, st.LastErr)
	}
	cs := eng.Crash()

	_, met, err := core.Recover(cs, method, sloOpts(cfg))
	if err != nil {
		log.Fatalf("[%s] budget=%v recovery: %v", dev, budget, err)
	}

	res := sloResult{
		Device:              dev,
		BudgetMS:            float64(budget.Microseconds()) / 1000,
		SeedRateBytesPerSec: seed,
		TrafficBytes:        traffic,
		CheckpointsTaken:    st.Taken,
		FinalWindowBytes:    met.RedoWindowBytes,
		ReplayMS:            float64((met.WallTotalTime - met.WallUndoTime).Microseconds()) / 1000,
		TotalMS:             float64(met.WallTotalTime.Microseconds()) / 1000,
		LosersUndone:        met.LosersUndone,
		CLRsWritten:         met.CLRsWritten,
	}
	fmt.Printf("  [%s] budget %v: %d ckpts, %s traffic, window %d bytes → replay %.2fms vs budget %v, %d CLRs\n",
		dev, budget, res.CheckpointsTaken, fmtBytes(traffic),
		res.FinalWindowBytes, res.ReplayMS, budget, res.CLRsWritten)
	return res
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func parseMethod(s string) (core.Method, error) {
	for _, m := range core.Methods() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (want Log0, Log1, Log2, SQL1 or SQL2)", s)
}
