// Command walbench measures the multi-client write path: commits/sec
// through tc.Session at increasing client counts, and how many log
// records each group-commit flush covers. It prints a table and writes
// the same numbers to -out as JSON (uploaded by CI as an artifact;
// nothing parses it). It is a diagnostic sweep, not a gate: gated
// numbers come from benchmark/ (make benchmark), invariants from go
// test; walbench covers the dimensions benchmark/ has no workload for
// yet — client count, shard count, the file device.
//
// The group committer's flush delay emulates the stable-write latency
// of a real log device (default 100µs ≈ a fast NVMe log force). With
// one client every commit pays the full delay; with N clients the
// leader's linger coalesces concurrent commits into one force, so
// throughput rises and records-per-flush grows — the classic group
// commit curve (LogBase; §4 of the paper assumes the same batching for
// EOSL).
//
// With -device=file the engine runs on real files and every
// group-commit flush is a real fsync of the log file, so the curve is
// the fsync-amortization curve measured on a real log device: commits
// per force (= per fsync) versus client count, with the emulated flush
// delay replaced by the device's own (set -flushdelay 0 to let the
// fsync alone pace the batches).
//
// With -shards the tool switches to the shard-plane sweep: a fixed
// client count drives a zipfian workload whose hot keys all land on one
// shard's range, at increasing shard counts, with load-driven
// auto-split enabled. Alongside the real commit rate it reports a
// modeled rate — commits divided by the busiest plane's held time —
// which is what the shard-parallel write path buys on hardware with
// enough cores: the busiest plane is the serial bottleneck, so
// spreading plane time is raising the ceiling even when a small CI box
// cannot show it in wall-clock throughput.
//
// Usage:
//
//	go run ./cmd/walbench                         # default sweep 1,4,16
//	go run ./cmd/walbench -clients 1,2,4,8,16,32 -txns 4000
//	go run ./cmd/walbench -device=file -dir /dev/shm/walbench -flushdelay 0
//	go run ./cmd/walbench -shards 1,2,4,8         # shard-plane sweep
//	go run ./cmd/walbench -quick                  # CI smoke settings
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
	"sync/atomic"
	"time"

	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/workload"
)

type result struct {
	Clients        int     `json:"clients"`
	Commits        int64   `json:"commits"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	CommitsPerSec  float64 `json:"commits_per_sec"`
	Flushes        int64   `json:"flushes"`
	RecordsPerFlus float64 `json:"records_per_flush"`
	CommitsPerFlus float64 `json:"commits_per_flush"`
	MaxBatch       int64   `json:"max_batch"`
	Yields         int64   `json:"yields"`
}

type report struct {
	Benchmark     string   `json:"benchmark"`
	Device        string   `json:"device"`
	GoMaxProcs    int      `json:"go_max_procs"`
	FlushDelayUS  float64  `json:"flush_delay_us"`
	TxnsPerClient int      `json:"txns_per_client"`
	UpdatesPerTxn int      `json:"updates_per_txn"`
	Rows          int      `json:"rows"`
	Results       []result `json:"results"`
}

func main() {
	var (
		clientsFlag = flag.String("clients", "1,4,16", "comma-separated client counts to sweep")
		txns        = flag.Int("txns", 2000, "transactions per client")
		ops         = flag.Int("ops", 2, "updates per transaction")
		rows        = flag.Int("rows", 10_000, "rows bulk-loaded before the run")
		cache       = flag.Int("cache", 1024, "buffer pool capacity in pages")
		flushDelay  = flag.Duration("flushdelay", 100*time.Microsecond, "emulated log-device write latency (file mode: extra linger on top of the real fsync)")
		deviceFlag  = flag.String("device", "sim", "storage backend: sim (emulated flush latency) or file (real files; every flush is a real fsync)")
		dirFlag     = flag.String("dir", "", "working directory for -device=file (default: a fresh temp dir, removed on exit)")
		out         = flag.String("out", "BENCH_wal.json", "output JSON path")
		quick       = flag.Bool("quick", false, "CI smoke settings (fewer txns, fewer rows)")
		shardsFlag  = flag.String("shards", "", "run the shard-plane sweep instead: comma-separated shard counts (e.g. 1,2,4,8)")
		zipfS       = flag.Float64("zipf", 1.01, "zipfian skew of the shard-sweep workload")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *shardsFlag != "" {
		// Shard-sweep defaults differ: a key space large enough that
		// range splits have room, and enough transactions that the
		// balancer sees several load windows.
		if !set["rows"] {
			*rows = 2_000_000
		}
		if !set["txns"] {
			*txns = 4000
		}
		if !set["clients"] {
			*clientsFlag = "16"
		}
		if !set["flushdelay"] {
			*flushDelay = 0
		}
		if !set["out"] {
			*out = "BENCH_wal_shards.json"
		}
		if *quick {
			*rows = 300_000
			*txns = 1500
		}
	} else if *quick {
		*txns = 300
		*rows = 4000
	}
	fileMode := *deviceFlag == "file"
	if !fileMode && *deviceFlag != "sim" {
		log.Fatalf("unknown -device %q (want sim or file)", *deviceFlag)
	}
	var workDir string
	if fileMode {
		if *dirFlag != "" {
			workDir = *dirFlag
			if err := os.MkdirAll(workDir, 0o755); err != nil {
				log.Fatal(err)
			}
		} else {
			tmp, err := os.MkdirTemp("", "walbench-*")
			if err != nil {
				log.Fatal(err)
			}
			workDir = tmp
			defer os.RemoveAll(tmp)
		}
	}

	var clients []int
	for _, s := range strings.Split(*clientsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -clients entry %q", s)
		}
		clients = append(clients, n)
	}

	if *shardsFlag != "" {
		if fileMode {
			log.Fatal("-shards sweeps the simulated device only (drop -device=file)")
		}
		var counts []int
		for _, s := range strings.Split(*shardsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				log.Fatalf("bad -shards entry %q", s)
			}
			counts = append(counts, n)
		}
		runShardSweep(counts, clients[0], *txns, *ops, *rows, *cache, *zipfS, *flushDelay, *out)
		return
	}

	rep := report{
		Benchmark:     "wal_group_commit",
		Device:        *deviceFlag,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		FlushDelayUS:  float64(*flushDelay) / float64(time.Microsecond),
		TxnsPerClient: *txns,
		UpdatesPerTxn: *ops,
		Rows:          *rows,
	}

	fmt.Printf("walbench: %d rows, %d txns/client × %d updates, flush delay %v\n",
		*rows, *txns, *ops, *flushDelay)
	fmt.Printf("%8s %12s %14s %10s %14s %14s %10s\n",
		"clients", "commits", "commits/sec", "flushes", "recs/flush", "commits/flush", "yields")

	for _, n := range clients {
		dir := ""
		if fileMode {
			dir = filepath.Join(workDir, fmt.Sprintf("c%d", n))
		}
		r, err := runOne(n, *txns, *ops, *rows, *cache, *flushDelay, dir)
		if err != nil {
			log.Fatalf("clients=%d: %v", n, err)
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("%8d %12d %14.0f %10d %14.2f %14.2f %10d\n",
			r.Clients, r.Commits, r.CommitsPerSec, r.Flushes, r.RecordsPerFlus, r.CommitsPerFlus, r.Yields)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func runOne(clients, txns, ops, rows, cache int, flushDelay time.Duration, dir string) (result, error) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = cache
	if dir != "" {
		cfg.Device = engine.DeviceFile
		cfg.Dir = dir
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return result{}, err
	}
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-value-%06d", k))
	}); err != nil {
		return result{}, err
	}
	mgr := eng.NewSessionManager(flushDelay)

	// Disjoint key partitions: this measures the write path, not lock
	// contention (bench_test.go covers the contended case).
	perClient := rows / clients
	if perClient < 1 {
		return result{}, fmt.Errorf("need at least one row per client (rows=%d, clients=%d)", rows, clients)
	}
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			base := uint64(c * perClient)
			for i := 0; i < txns; i++ {
				if err := sess.Begin(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				for u := 0; u < ops; u++ {
					k := base + uint64((i*ops+u)%perClient)
					v := []byte(fmt.Sprintf("c%03d-t%06d-u%02d", c, i, u))
					if err := sess.Update(cfg.TableID, k, v); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
				if err := sess.Commit(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return result{}, firstErr
	}

	st := eng.Stats().WAL
	commits := int64(clients) * int64(txns)
	r := result{
		Clients:        clients,
		Commits:        commits,
		ElapsedMS:      float64(elapsed) / float64(time.Millisecond),
		CommitsPerSec:  float64(commits) / elapsed.Seconds(),
		Flushes:        st.Flushes,
		RecordsPerFlus: st.RecordsPerFlush(),
		MaxBatch:       st.MaxBatch,
		Yields:         st.Yields,
	}
	if st.Flushes > 0 {
		r.CommitsPerFlus = float64(st.Commits) / float64(st.Flushes)
	}
	return r, nil
}

// shardResult is one shard count's row of the shard-plane sweep.
type shardResult struct {
	Shards         int     `json:"shards"`
	Commits        int64   `json:"commits"`
	Conflicts      int64   `json:"conflicts"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	CommitsPerSec  float64 `json:"commits_per_sec"`
	MaxPlaneBusyMS float64 `json:"max_plane_busy_ms"`
	// ModeledCommitsPerSec divides the commits by the busiest plane's
	// held time: the rate a core per shard would sustain, since the
	// busiest plane is the serial bottleneck of the data path.
	ModeledCommitsPerSec float64 `json:"modeled_commits_per_sec"`
	ModeledSpeedup       float64 `json:"modeled_speedup_vs_1"`
	Routes               int     `json:"routes"`
	BoundarySplits       int64   `json:"boundary_splits"`
	Migrations           int64   `json:"migrations"`
	FailedMigrations     int64   `json:"failed_migrations"`
	FirstHotShare        float64 `json:"first_hot_share"`
	LastHotShare         float64 `json:"last_hot_share"`
	PerShardOps          []int64 `json:"per_shard_ops"`
}

type shardReport struct {
	Benchmark     string        `json:"benchmark"`
	GoMaxProcs    int           `json:"go_max_procs"`
	Clients       int           `json:"clients"`
	TxnsPerClient int           `json:"txns_per_client"`
	UpdatesPerTxn int           `json:"updates_per_txn"`
	Rows          int           `json:"rows"`
	ZipfS         float64       `json:"zipf_s"`
	Results       []shardResult `json:"results"`
}

func runShardSweep(counts []int, clients, txns, ops, rows, cache int, zipfS float64, flushDelay time.Duration, out string) {
	rep := shardReport{
		Benchmark:     "wal_shard_planes",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Clients:       clients,
		TxnsPerClient: txns,
		UpdatesPerTxn: ops,
		Rows:          rows,
		ZipfS:         zipfS,
	}
	fmt.Printf("walbench shard sweep: %d rows, %d clients × %d txns × %d updates, zipf s=%g\n",
		rows, clients, txns, ops, zipfS)
	fmt.Printf("%8s %12s %14s %12s %16s %10s %8s %8s\n",
		"shards", "commits", "commits/sec", "conflicts", "modeled c/s", "speedup", "splits", "moves")
	for _, n := range counts {
		r, err := runOneShards(n, clients, txns, ops, rows, cache, zipfS, flushDelay)
		if err != nil {
			log.Fatalf("shards=%d: %v", n, err)
		}
		if len(rep.Results) > 0 && rep.Results[0].Shards == 1 && r.MaxPlaneBusyMS > 0 {
			r.ModeledSpeedup = rep.Results[0].MaxPlaneBusyMS / r.MaxPlaneBusyMS
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("%8d %12d %14.0f %12d %16.0f %10.2f %8d %8d\n",
			r.Shards, r.Commits, r.CommitsPerSec, r.Conflicts,
			r.ModeledCommitsPerSec, r.ModeledSpeedup, r.BoundarySplits, r.Migrations)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// runOneShards drives the skewed workload at one shard count. Every
// client owns a workload generator whose zipf ranks are hashed into a
// narrow low slice (1/64) of the key space: a contiguous hot range — initially
// one shard's — with enough intra-range spread that boundary splits and
// migrations can actually divide the load. Every third transaction adds
// a uniformly drawn far key, so cross-shard commits exercise the
// multi-plane path throughout.
func runOneShards(shards, clients, txns, ops, rows, cache int, zipfS float64, flushDelay time.Duration) (shardResult, error) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = cache
	cfg.Shards = shards
	cfg.KeySpan = uint64(rows)
	cfg.AutoSplit = true
	// Small windows and bounded moves: a migration physically rewrites
	// every row it moves, so oversized moves would cost more than the
	// workload being balanced.
	cfg.AutoSplitCfg = tc.AutoSplitConfig{Interval: 2 * time.Millisecond, MaxMoveSpan: 2048}
	eng, err := engine.New(cfg)
	if err != nil {
		return shardResult{}, err
	}
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-value-%06d", k))
	}); err != nil {
		return shardResult{}, err
	}
	mgr := eng.NewSessionManager(flushDelay)

	hotSpan := uint64(rows / 64)
	if hotSpan == 0 {
		hotSpan = uint64(rows)
	}
	// The first third of each client's transactions is warmup: it gives
	// the balancer load windows to split and migrate the hot range.
	// Measurement starts at the barrier after warmup, from a snapshot of
	// the plane counters, so the modeled rate reflects the rebalanced
	// steady state rather than the migrations that produced it.
	warm := txns / 3
	var (
		wg        sync.WaitGroup
		warmWG    sync.WaitGroup
		gate      = make(chan struct{})
		conflicts atomic.Int64
		firstErr  error
		errOnce   sync.Once
	)
	warmWG.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			warmed := false
			defer func() {
				if !warmed {
					warmWG.Done()
				}
			}()
			wcfg := workload.DefaultConfig()
			wcfg.Rows = rows
			wcfg.Dist = workload.Zipf
			wcfg.ZipfS = zipfS
			wcfg.Seed = int64(c + 1)
			gen, err := workload.NewGenerator(wcfg)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			sess := mgr.NewSession()
			for i := 0; i < txns; i++ {
				if i == warm {
					warmed = true
					warmWG.Done()
					<-gate
				}
				keys := make([]uint64, 0, ops)
				for u := 0; u < ops; u++ {
					rank := gen.NextKey()
					if i%3 == 0 && u == ops-1 {
						// Far key: uniform over the whole domain.
						keys = append(keys, (rank*0x9E3779B97F4A7C15)%uint64(rows))
					} else {
						keys = append(keys, (rank*2654435761)%hotSpan)
					}
				}
				for attempt := 0; ; attempt++ {
					if attempt == 1000 {
						errOnce.Do(func() { firstErr = fmt.Errorf("client %d txn %d starved", c, i) })
						return
					}
					if err := sess.Begin(); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					failed := false
					for u, k := range keys {
						v := []byte(fmt.Sprintf("c%03d-t%06d-u%02d", c, i, u))
						if err := sess.Update(cfg.TableID, k, v); err != nil {
							failed = true
							break
						}
					}
					if failed {
						conflicts.Add(1)
						if err := sess.Abort(); err != nil {
							errOnce.Do(func() { firstErr = err })
							return
						}
						time.Sleep(time.Duration(attempt+1) * 10 * time.Microsecond)
						continue
					}
					if err := sess.Commit(); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					break
				}
			}
		}(c)
	}
	warmWG.Wait()
	snap := eng.Stats()
	conflicts.Store(0)
	start := time.Now()
	close(gate)
	wg.Wait()
	elapsed := time.Since(start)
	if b := eng.Balancer(); b != nil {
		b.Stop()
	}
	if firstErr != nil {
		return shardResult{}, firstErr
	}

	st := eng.Stats()
	commits := int64(clients) * int64(txns-warm)
	var maxBusy int64
	var perShard []int64
	for i, ss := range st.Shards {
		ops := ss.SessionOps - snap.Shards[i].SessionOps
		busy := ss.SessionBusyNS - snap.Shards[i].SessionBusyNS
		perShard = append(perShard, ops)
		if busy > maxBusy {
			maxBusy = busy
		}
	}
	r := shardResult{
		Shards:           shards,
		Commits:          commits,
		Conflicts:        conflicts.Load(),
		ElapsedMS:        float64(elapsed) / float64(time.Millisecond),
		CommitsPerSec:    float64(commits) / elapsed.Seconds(),
		MaxPlaneBusyMS:   float64(maxBusy) / float64(time.Millisecond),
		Routes:           len(st.Routes),
		BoundarySplits:   st.AutoSplit.BoundarySplits,
		Migrations:       st.AutoSplit.Migrations,
		FailedMigrations: st.AutoSplit.FailedMigrations,
		FirstHotShare:    st.AutoSplit.FirstHotShare,
		LastHotShare:     st.AutoSplit.LastHotShare,
		PerShardOps:      perShard,
	}
	if maxBusy > 0 {
		r.ModeledCommitsPerSec = float64(commits) / (float64(maxBusy) / float64(time.Second))
	}
	r.ModeledSpeedup = 1
	return r, nil
}
