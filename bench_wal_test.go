// Group-commit write-path benchmarks: commits/sec through concurrent
// tc.Sessions at 1/4/16 clients, with records-per-flush reported as a
// custom metric, on the simulated device and on real files. Unlike the
// recovery benchmarks in bench_test.go these measure *wall-clock*
// throughput — the multi-client write path is real concurrency, not
// virtual time. Run the sweep with
//
//	go test -run '^$' -bench WALGroupCommit -benchtime 300x .
package logrec_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logrec/internal/engine"
	"logrec/internal/tc"
)

const (
	walBenchRows   = 4000
	walBenchOps    = 2 // updates per transaction
	walFlushDelay  = 50 * time.Microsecond
	walBenchJitter = 8 // keys touched per client partition
)

// BenchmarkWALGroupCommit sweeps the client count. On the simulated
// device the group committer's linger emulates a fast log device's
// write latency (walFlushDelay), so one client pays it on every commit
// and more clients share it; linger-us/flush is the linger measured.
// The file/ cases run on real files at zero linger: every flush is an
// fsync of the log, and commits/flush is how many commits one fsync
// carries.
func BenchmarkWALGroupCommit(b *testing.B) {
	clientCounts := []int{1, 4, 16}
	for _, clients := range clientCounts {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			benchGroupCommit(b, clients, "", walFlushDelay)
		})
	}
	b.Run("file", func(b *testing.B) {
		for _, clients := range clientCounts {
			b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
				benchGroupCommit(b, clients, b.TempDir(), 0)
			})
		}
	})
}

// newWALBenchEngine loads walBenchRows rows into a fresh engine — on
// real files in dir, or simulated if dir is empty — and puts it in
// multi-client mode with the given group-commit linger.
func newWALBenchEngine(b *testing.B, dir string, flushDelay time.Duration) (*engine.Engine, *tc.SessionManager) {
	b.Helper()
	cfg := engine.DefaultConfig()
	cfg.CachePages = 512
	if dir != "" {
		cfg.Device, cfg.Dir = engine.DeviceFile, dir
	}
	eng, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Load(walBenchRows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-value-%06d", k))
	}); err != nil {
		b.Fatal(err)
	}
	return eng, eng.NewSessionManager(flushDelay)
}

func benchGroupCommit(b *testing.B, clients int, dir string, flushDelay time.Duration) {
	eng, mgr := newWALBenchEngine(b, dir, flushDelay)
	cfg := eng.Cfg

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
		b.ReportMetric(st.Lingered.Seconds()*1e6/float64(st.Flushes), "linger-us/flush")
	}
}

// BenchmarkSessionCommit measures what one transaction costs end to end
// at zero linger — the flush policy benchmark/ runs — in the three
// shapes the commit path tells apart: a transaction that only reads
// (appends and forces nothing), a lone writer (forces inline, never
// yields) and two concurrent writers (a leader yields so the other can
// join its force). Per transaction: wall time, heap allocations, log
// bytes, log forces and leader yields. Ungated.
func BenchmarkSessionCommit(b *testing.B) {
	for _, c := range []struct {
		name    string
		clients int
		reads   bool
	}{
		{"readonly", 1, true},
		{"solo-writer", 1, false},
		{"two-writers", 2, false},
	} {
		b.Run(c.name, func(b *testing.B) { benchSessionCommit(b, c.clients, c.reads) })
	}
}

func benchSessionCommit(b *testing.B, clients int, reads bool) {
	eng, mgr := newWALBenchEngine(b, "", 0)
	cfg := eng.Cfg
	val := []byte("updated-value-000000")

	// One transaction on a client's own key partition: 4 reads, or
	// walBenchOps updates.
	runTxn := func(sess *tc.Session, base uint64, i int64) error {
		if err := sess.Begin(); err != nil {
			return err
		}
		if reads {
			for u := int64(0); u < 4; u++ {
				if _, _, err := sess.Read(cfg.TableID, base+uint64(i*4+u)%walBenchJitter); err != nil {
					return err
				}
			}
		} else {
			for u := int64(0); u < walBenchOps; u++ {
				if err := sess.Update(cfg.TableID, base+uint64(i*walBenchOps+u)%walBenchJitter, val); err != nil {
					return err
				}
			}
		}
		return sess.Commit()
	}

	// b.N transactions in all, drawn from a shared counter.
	var next atomic.Int64
	perClient := walBenchRows / clients
	logStart, walStart := eng.Log.EndLSN(), eng.Stats().WAL
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				if err := runTxn(sess, uint64(c*perClient), i); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&after)

	wal, n := eng.Stats().WAL, float64(b.N)
	b.ReportMetric(0, "ns/op") // reported as ns/txn
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/txn")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/txn")
	b.ReportMetric(float64(eng.Log.EndLSN()-logStart)/n, "logB/txn")
	b.ReportMetric(float64(wal.Flushes-walStart.Flushes)/n, "flushes/commit")
	b.ReportMetric(float64(wal.Yields-walStart.Yields)/n, "yields/commit")
}
