// Command walbench measures the multi-client write path: commits/sec
// through tc.Session at increasing client counts, and how many log
// records each group-commit flush covers. It prints a table and writes
// the same numbers to -out as JSON (uploaded by CI as an artifact;
// nothing parses it). It is a diagnostic sweep, not a gate: gated
// numbers come from benchmark/ (make benchmark), invariants from go
// test; walbench covers the dimensions benchmark/ has no workload for
// yet — client count and the file device.
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
// Usage:
//
//	go run ./cmd/walbench                         # default sweep 1,4,16
//	go run ./cmd/walbench -clients 1,2,4,8,16,32 -txns 4000
//	go run ./cmd/walbench -device=file -dir /dev/shm/walbench -flushdelay 0
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
	"time"

	"logrec/internal/engine"
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
	)
	flag.Parse()
	if *quick {
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
