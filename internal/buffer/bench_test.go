package buffer

import (
	"math/rand"
	"testing"

	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// residentPool returns a pool over the default disk geometry with pages
// 2 .. n+1 written and cached. Every page is stored as the same image:
// the hit path never reads the bytes, so the pool costs its bookkeeping
// and one page.
func residentPool(b *testing.B, n int) *Pool {
	b.Helper()
	disk, err := storage.New(&sim.Clock{}, storage.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	img := page.New(disk.Config().PageSize, page.TypeLeaf).Bytes()
	pool, err := New(disk, n)
	if err != nil {
		b.Fatal(err)
	}
	for pid := storage.PageID(2); pid < storage.PageID(2+n); pid++ {
		if _, err := disk.Write(pid, img); err != nil {
			b.Fatal(err)
		}
		f, err := pool.Get(pid)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(f)
	}
	return pool
}

// BenchmarkGetHit times a pinned lookup of a cached page and its unpin,
// over a 20k-page resident pool in random page order, from one
// goroutine and from GOMAXPROCS of them sharing the pool's latch.
func BenchmarkGetHit(b *testing.B) {
	const pages = 20000
	pool := residentPool(b, pages)
	pids := make([]storage.PageID, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range pids {
		pids[i] = storage.PageID(2 + rng.Intn(pages))
	}
	get := func(b *testing.B, pid storage.PageID) {
		f, err := pool.Get(pid)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(f)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			get(b, pids[i&(len(pids)-1)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := rand.Intn(len(pids))
			for pb.Next() {
				get(b, pids[i&(len(pids)-1)])
				i++
			}
		})
	})
}

// BenchmarkRedirtyAfterFlush times one flush of a dirty page and the
// copy-on-write its next mutation makes of the image the flush handed
// to the device.
func BenchmarkRedirtyAfterFlush(b *testing.B) {
	pool := residentPool(b, 1)
	pool.SetELSN(wal.LSN(1 << 62))
	f, err := pool.Get(2)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Unpin(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn := wal.LSN(i + 1)
		f.Page.SetLSN(uint64(lsn))
		pool.MarkDirty(f, lsn)
		if err := flush(pool, f); err != nil {
			b.Fatal(err)
		}
	}
}
