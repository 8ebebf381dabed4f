package btree

import (
	"math/rand"
	"testing"

	"logrec/internal/buffer"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

func benchTree(b *testing.B, rows int) *Tree {
	b.Helper()
	clock := &sim.Clock{}
	disk, err := storage.New(clock, storage.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pool, err := buffer.New(disk, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	log := wal.NewLog()
	pool.SetLogForce(func() wal.LSN { return log.Flush() })
	tree, err := Create(pool, clock, 1, storage.MetaPageID+1)
	if err != nil {
		b.Fatal(err)
	}
	tree.SetSMOLogger(walSMOLogger{log})
	v := make([]byte, 92)
	for k := uint64(0); k < uint64(rows); k++ {
		if err := insertAt(tree, k, v, wal.LSN(k+100)); err != nil {
			b.Fatal(err)
		}
	}
	return tree
}

func BenchmarkInsertSequential(b *testing.B) {
	tree := benchTree(b, 0)
	v := make([]byte, 92)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := insertAt(tree, uint64(i), v, wal.LSN(i+100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	tree := benchTree(b, 0)
	v := make([]byte, 92)
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := insertAt(tree, uint64(keys[i]), v, wal.LSN(i+100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchHot(b *testing.B) {
	tree := benchTree(b, 100_000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := tree.Search(uint64(rng.Intn(100_000))); err != nil || !found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

func BenchmarkUpdateHot(b *testing.B) {
	tree := benchTree(b, 100_000)
	rng := rand.New(rand.NewSource(3))
	v := make([]byte, 92)
	patch := func([]byte) ([]byte, error) { return v, nil }
	lsn := wal.LSN(1 << 30)
	logFn := func(storage.PageID) wal.LSN { lsn++; return lsn }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.PatchLogged(uint64(rng.Intn(100_000)), patch, logFn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindLeaf(b *testing.B) {
	tree := benchTree(b, 100_000)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.FindLeaf(uint64(rng.Intn(100_000))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	tree := benchTree(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := tree.Scan(func(uint64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 50_000 {
			b.Fatalf("scan saw %d", n)
		}
	}
}
