// Group-commit write-path benchmarks: commits/sec through concurrent
// tc.Sessions at 1/4/16 clients, with records-per-flush reported as a
// custom metric. Unlike the recovery benchmarks in bench_test.go these
// measure *wall-clock* throughput — the multi-client write path is real
// concurrency, not virtual time. cmd/walbench runs the same sweep as a
// standalone diagnostic.
package logrec_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logrec/internal/engine"
)

const (
	walBenchRows   = 4000
	walBenchOps    = 2 // updates per transaction
	walFlushDelay  = 50 * time.Microsecond
	walBenchJitter = 8 // keys touched per client partition
)

func BenchmarkWALGroupCommit(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			benchGroupCommit(b, clients)
		})
	}
}

func benchGroupCommit(b *testing.B, clients int) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = 512
	eng, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(walBenchRows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-value-%06d", k))
	}); err != nil {
		b.Fatal(err)
	}
	mgr := eng.NewSessionManager(walFlushDelay)

	// b.N transactions total, drawn from a shared counter; each client
	// updates its own key partition so the benchmark isolates the write
	// path from lock contention.
	var next atomic.Int64
	perClient := walBenchRows / clients

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			base := uint64(c * perClient)
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if err := sess.Begin(); err != nil {
					b.Error(err)
					return
				}
				for u := 0; u < walBenchOps; u++ {
					k := base + uint64(int(i)*walBenchOps+u)%uint64(walBenchJitter)
					if err := sess.Update(cfg.TableID, k, []byte(fmt.Sprintf("t%08d-u%d", i, u))); err != nil {
						b.Error(err)
						return
					}
				}
				if err := sess.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	st := eng.Stats().WAL
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/sec")
	b.ReportMetric(st.RecordsPerFlush(), "recs/flush")
	if st.Flushes > 0 {
		b.ReportMetric(float64(st.Commits)/float64(st.Flushes), "commits/flush")
	}
}
