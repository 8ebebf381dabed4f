package buffer

// Concurrency stress for the pool, designed to run under -race.
// Mutator, reader, prefetch and checkpoint goroutines hammer a pool
// (whose miss reads and flush writes release the latch) while a wrapper
// device enforces the WAL protocol as an oracle: no page may ever reach the disk carrying an LSN at or
// beyond the published end of stable log (exclusive, like the real
// log's: forcing returns the LSN the next record will get). The device
// also checks the hand-off of page images: a flush writes the frame's
// own bytes, so a frame mutated while or after its write must copy
// them first.
//
// Locking mirrors the engine's discipline. Pages are mutated only
// while pinned and only under a per-page test mutex (the engine's
// record latches); mutators hold a read lock on a checkpoint gate that
// the checkpoint thread takes exclusively across the flip and flush
// (the engine's session planes, which TC.Checkpoint quiesces).

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// storeMax CAS-raises a to at least v (stable LSN only ever grows).
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// oracleDevice wraps the simulated disk and checks every page write
// against the stable LSN at the moment of the write. Sound because
// stable only grows: a violation observed here is a real protocol
// break, never a stale read. Every IO costs only virtual time, so the
// race detector gets maximal interleaving of the pool's latch-released
// reads and writes instead of a disk-latency-paced crawl.
//
// It also checks that stored images are immutable: the pool writes a
// frame's own bytes, and the disk keeps the written slice and hands it
// to every reader, so a frame that mutated a page without copying it
// first would write the image in place. Each image is hashed at Write
// and re-hashed by changedImages.
type oracleDevice struct {
	*storage.Disk
	stable     *atomic.Uint64
	violations atomic.Int64
	firstErr   atomic.Pointer[string]

	mu     sync.Mutex
	images []storedImage
}

type storedImage struct {
	pid  storage.PageID
	data []byte
	sum  uint32
}

func (o *oracleDevice) Write(pid storage.PageID, data []byte) (sim.Time, error) {
	lsn := uint64(page.WrapShared(data).LSN())
	if stable := o.stable.Load(); lsn != 0 && lsn >= stable {
		o.violations.Add(1)
		msg := fmt.Sprintf("page %d flushed with LSN %d >= stable end %d", pid, lsn, stable)
		o.firstErr.CompareAndSwap(nil, &msg)
	}
	o.mu.Lock()
	o.images = append(o.images, storedImage{pid, data, crc32.ChecksumIEEE(data)})
	o.mu.Unlock()
	return o.Disk.Write(pid, data)
}

// changedImages counts the stored images whose bytes changed after
// they were written and returns the first few of their PIDs.
func (o *oracleDevice) changedImages() (n int, first []storage.PageID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, img := range o.images {
		if crc32.ChecksumIEEE(img.data) != img.sum {
			if n++; len(first) < 8 {
				first = append(first, img.pid)
			}
		}
	}
	return n, first
}

// The subtest is named for the clock, the pool's eviction policy.
func TestPoolStressRace(t *testing.T) {
	t.Run("clock", runPoolStress)
}

func runPoolStress(t *testing.T) {
	const (
		capacity = 128
		keyspace = 512
		mutators = 4
		readers  = 2
		mutOps   = 1500
		readOps  = 2500
	)
	clock := &sim.Clock{}
	cfg := storage.Config{
		PageSize:        256,
		SeekTime:        4 * sim.Millisecond,
		TransferPerPage: 100 * sim.Microsecond,
		WriteSeekTime:   2 * sim.Millisecond,
		MaxBlock:        8,
		Channels:        4,
	}
	raw, err := storage.New(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stable atomic.Uint64
	var nextLSN atomic.Uint64
	nextLSN.Store(100)
	disk := &oracleDevice{Disk: raw, stable: &stable}
	for pid := storage.PageID(2); pid < 2+keyspace; pid++ {
		data := page.New(cfg.PageSize, page.TypeLeaf).Bytes()
		if _, err := disk.Write(pid, data); err != nil {
			t.Fatal(err)
		}
	}

	pool, err := New(disk, capacity)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetCleanerTarget(0.4)
	pool.SetCleanerRate(4)
	pool.SetLogForce(func() wal.LSN {
		v := nextLSN.Load() + 1
		storeMax(&stable, v)
		pool.SetELSN(wal.LSN(v))
		return wal.LSN(v)
	})

	var (
		ckptGate sync.RWMutex
		perPid   [keyspace + 2]sync.RWMutex
		bounded  sync.WaitGroup // op-count-bounded mutators and readers
		loopers  sync.WaitGroup // run until the bounded work is done
		done     = make(chan struct{})
	)

	for g := 0; g < mutators; g++ {
		bounded.Add(1)
		go func(seed int64) {
			defer bounded.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < mutOps; i++ {
				pid := storage.PageID(2 + rng.Intn(keyspace))
				ckptGate.RLock()
				f, err := pool.Get(pid)
				if err != nil {
					ckptGate.RUnlock()
					t.Errorf("Get(%d): %v", pid, err)
					return
				}
				perPid[pid].Lock()
				lsn := nextLSN.Add(1)
				f.Page.SetLSN(lsn)
				pool.MarkDirty(f, wal.LSN(lsn))
				perPid[pid].Unlock()
				pool.Unpin(f)
				ckptGate.RUnlock()
			}
		}(int64(g) + 1)
	}

	for g := 0; g < readers; g++ {
		bounded.Add(1)
		go func(seed int64) {
			defer bounded.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < readOps; i++ {
				pid := storage.PageID(2 + rng.Intn(keyspace))
				f, err := pool.Get(pid)
				if err != nil {
					t.Errorf("Get(%d): %v", pid, err)
					return
				}
				perPid[pid].RLock()
				_ = f.Page.LSN()
				perPid[pid].RUnlock()
				pool.Unpin(f)
			}
		}(int64(100 + g))
	}

	// Prefetcher: random batches, exercising the free-frame clamp
	// against concurrent residency churn.
	loopers.Add(1)
	go func() {
		defer loopers.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			batch := make([]storage.PageID, 8)
			for j := range batch {
				batch[j] = storage.PageID(2 + rng.Intn(keyspace))
			}
			consumed, issued := pool.Prefetch(batch)
			if consumed < 0 || issued < 0 || issued > consumed {
				t.Errorf("Prefetch returned consumed=%d issued=%d", consumed, issued)
				return
			}
		}
	}()

	// Checkpointer: the engine quiesces every session plane across the
	// flip and the flush; the gate's write lock plays that role here.
	loopers.Add(1)
	go func() {
		defer loopers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			ckptGate.Lock()
			pool.BeginCheckpointFlip()
			if err := pool.FlushForCheckpoint(); err != nil {
				t.Errorf("FlushForCheckpoint: %v", err)
			}
			ckptGate.Unlock()
		}
	}()

	bounded.Wait()
	close(done)
	loopers.Wait()

	// Drain: everything still dirty must flush cleanly under the WAL
	// protocol, and the aggregate accounting must reconcile.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := pool.DirtyCount(); got != 0 {
		t.Fatalf("DirtyCount after FlushAll = %d", got)
	}
	if pool.resident() > capacity {
		t.Fatalf("Len %d exceeds capacity %d", pool.resident(), capacity)
	}
	// One frame per cached page: the clock ring holds exactly the
	// mapped frames, so no orphan can later unmap a live one.
	if err := ringMismatch(pool); err != nil {
		t.Fatal(err)
	}
	if n := disk.violations.Load(); n != 0 {
		t.Fatalf("WAL protocol violated %d times; first: %s", n, *disk.firstErr.Load())
	}
	if n, pids := disk.changedImages(); n != 0 {
		t.Fatalf("%d stored images written in place; the first on pages %v", n, pids)
	}
	// The hand-off really happened: every frame, clean now, holds the
	// very image the device stores — read from it or flushed to it —
	// not a copy of it.
	if pid, ok := ownImage(pool, disk.Disk); ok {
		t.Fatalf("the frame of page %d holds a copy of the device's image", pid)
	}
	st := pool.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("stress ran no pool operations")
	}
	if st.Flushes == 0 {
		t.Fatal("stress never flushed a page")
	}
}

// ownImage returns the first cached page whose frame does not share
// its bytes with disk's stored image, and whether there is one.
func ownImage(p *Pool, disk *storage.Disk) (storage.PageID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := p.head; f != nil; f = f.next {
		img, ok := disk.Image(f.PID)
		if !ok || &img[0] != &f.Page.Bytes()[0] {
			return f.PID, true
		}
	}
	return 0, false
}

// ringMismatch reports how the clock ring and the page table disagree,
// or nil when the ring links exactly the mapped frames, each once, with
// consistent back links and ends.
func ringMismatch(p *Pool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	inRing := make(map[*Frame]bool)
	var prev *Frame
	for f := p.head; f != nil; prev, f = f, f.next {
		if inRing[f] {
			return fmt.Errorf("clock ring loops back at page %d", f.PID)
		}
		inRing[f] = true
		if f.prev != prev {
			return fmt.Errorf("ring frame for page %d has a stale back link", f.PID)
		}
		if !p.mapped(f) {
			return fmt.Errorf("ring frame for page %d is not the mapped one", f.PID)
		}
	}
	if p.tail != prev {
		return fmt.Errorf("ring tail is not its last frame")
	}
	var err error
	p.frames.Range(func(pid storage.PageID, f *Frame) bool {
		if !inRing[f] {
			err = fmt.Errorf("mapped frame for page %d is not in the clock ring", pid)
		}
		return err == nil
	})
	return err
}
