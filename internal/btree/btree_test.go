package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"logrec/internal/buffer"
	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// testEnv bundles a tree over a fresh pool and disk.
type testEnv struct {
	clock *sim.Clock
	disk  *storage.Disk
	pool  *buffer.Pool
	tree  *Tree
	log   *wal.Log
}

// walSMOLogger adapts a wal.Log to the SMOLogger interface.
type walSMOLogger struct{ log *wal.Log }

func (l walSMOLogger) NextLSN() wal.LSN { return l.log.EndLSN() }
func (l walSMOLogger) AppendSMO(r *wal.SMORec, at wal.LSN) bool {
	return l.log.MustAppendAt(r, at)
}

func newEnv(t *testing.T, poolPages int) *testEnv {
	t.Helper()
	clock := &sim.Clock{}
	cfg := storage.DefaultConfig()
	disk, err := storage.New(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(disk, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	log := wal.NewLog()
	// Keep WAL protocol satisfied in unit tests: force-flush on demand.
	pool.SetLogForce(func() wal.LSN { return log.Flush() })
	tree, err := Create(pool, clock, 1, storage.MetaPageID+1)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetSMOLogger(walSMOLogger{log})
	return &testEnv{clock: clock, disk: disk, pool: pool, tree: tree, log: log}
}

func (e *testEnv) lsn() wal.LSN {
	// Fabricate monotonically increasing LSNs by appending inert
	// begin-checkpoint markers; unit tests need no real update records.
	return e.log.MustAppend(&wal.BeginCkptRec{})
}

// insertAt and deleteAt stamp the change with a given LSN.
func insertAt(t *Tree, key uint64, v []byte, lsn wal.LSN) error {
	return t.InsertLogged(key, v, func(storage.PageID) wal.LSN { return lsn })
}

func deleteAt(t *Tree, key uint64, lsn wal.LSN) error {
	return t.DeleteLogged(key, func(storage.PageID, []byte) wal.LSN { return lsn })
}

// countRows returns the number of rows in the tree.
func countRows(t *Tree) (int, error) {
	n := 0
	err := t.Scan(func(uint64, []byte) error { n++; return nil })
	return n, err
}

// indexPIDs returns the PIDs of every internal (index) page, root
// included, in breadth-first order.
func indexPIDs(t *Tree) ([]storage.PageID, error) {
	if t.meta.Height <= 1 {
		return nil, nil
	}
	var out []storage.PageID
	frontier := []storage.PageID{t.meta.Root}
	for level := t.meta.Height; level > 1; level-- {
		var next []storage.PageID
		for _, pid := range frontier {
			out = append(out, pid)
			f, err := t.pool.Get(pid)
			if err != nil {
				return nil, err
			}
			if level > 2 {
				next = AppendChildren(next, &f.Page)
			}
			t.pool.Unpin(f)
		}
		frontier = next
	}
	return out, nil
}

func val(k uint64) []byte { return []byte(fmt.Sprintf("value-%06d", k)) }

// update rewrites key's row to v under a fresh LSN: the whole-row patch
// of a forward update.
func (e *testEnv) update(key uint64, v []byte) error {
	return e.tree.PatchLogged(key, func([]byte) ([]byte, error) { return v, nil },
		func(storage.PageID) wal.LSN { return e.lsn() })
}

func TestInsertSearchSingle(t *testing.T) {
	e := newEnv(t, 64)
	if err := insertAt(e.tree, 42, val(42), e.lsn()); err != nil {
		t.Fatal(err)
	}
	got, found, err := e.tree.Search(42)
	if err != nil || !found {
		t.Fatalf("Search: found=%v err=%v", found, err)
	}
	if !bytes.Equal(got, val(42)) {
		t.Fatalf("value = %q", got)
	}
	_, found, err = e.tree.Search(43)
	if err != nil || found {
		t.Fatalf("Search(43): found=%v err=%v", found, err)
	}
}

func TestInsertDuplicateKey(t *testing.T) {
	e := newEnv(t, 64)
	if err := insertAt(e.tree, 1, val(1), e.lsn()); err != nil {
		t.Fatal(err)
	}
	if err := insertAt(e.tree, 1, val(1), e.lsn()); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("err = %v, want ErrKeyExists", err)
	}
}

func TestUpdateMissingKey(t *testing.T) {
	e := newEnv(t, 64)
	if err := e.update(9, val(9)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err = %v, want ErrKeyNotFound", err)
	}
}

func TestManyInsertsSplit(t *testing.T) {
	e := newEnv(t, 256)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if e.tree.Meta().Height < 2 {
		t.Fatalf("height = %d, expected splits to raise it", e.tree.Meta().Height)
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cnt, err := countRows(e.tree)
	if err != nil || cnt != n {
		t.Fatalf("Count = %d (%v), want %d", cnt, err, n)
	}
	for k := uint64(0); k < n; k += 37 {
		got, found, err := e.tree.Search(k)
		if err != nil || !found || !bytes.Equal(got, val(k)) {
			t.Fatalf("Search(%d): found=%v err=%v", k, found, err)
		}
	}
	// SMO records must have been logged.
	if e.log.AppendCount(wal.TypeSMO) == 0 {
		t.Fatal("no SMO records logged despite splits")
	}
}

func TestRandomOrderInserts(t *testing.T) {
	e := newEnv(t, 256)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(1500)
	for _, k := range keys {
		if err := insertAt(e.tree, uint64(k), val(uint64(k)), e.lsn()); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Scan must be sorted and complete.
	var prev uint64
	first := true
	n := 0
	err := e.tree.Scan(func(k uint64, v []byte) error {
		if !first && k <= prev {
			return fmt.Errorf("scan out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("scan saw %d keys, want %d", n, len(keys))
	}
}

func TestUpdateAfterSplits(t *testing.T) {
	e := newEnv(t, 256)
	const n = 1000
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k += 3 {
		nv := []byte(fmt.Sprintf("updated-%05d", k))
		if err := e.update(k, nv); err != nil {
			t.Fatalf("Update(%d): %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		got, found, err := e.tree.Search(k)
		if err != nil || !found {
			t.Fatalf("Search(%d): %v %v", k, found, err)
		}
		want := val(k)
		if k%3 == 0 {
			want = []byte(fmt.Sprintf("updated-%05d", k))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d: got %q want %q", k, got, want)
		}
	}
}

func TestDeleteKeys(t *testing.T) {
	e := newEnv(t, 256)
	const n = 800
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k += 2 {
		if err := deleteAt(e.tree, k, e.lsn()); err != nil {
			t.Fatalf("Delete(%d): %v", k, err)
		}
	}
	cnt, err := countRows(e.tree)
	if err != nil || cnt != n/2 {
		t.Fatalf("Count = %d (%v), want %d", cnt, err, n/2)
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := deleteAt(e.tree, 0, e.lsn()); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("re-delete err = %v, want ErrKeyNotFound", err)
	}
}

func TestFindLeafDoesNotFetchLeaf(t *testing.T) {
	e := newEnv(t, 512)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	// Flush and drop everything, then re-open with a cold cache big
	// enough for the index only.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	meta := e.tree.Meta()
	clock := &sim.Clock{}
	cold := e.disk.Fork(clock)
	pool2, err := buffer.New(cold, 64)
	if err != nil {
		t.Fatal(err)
	}
	tree2 := Open(pool2, clock, meta)
	pid, err := tree2.FindLeaf(1234)
	if err != nil {
		t.Fatal(err)
	}
	if pid == storage.InvalidPageID {
		t.Fatal("FindLeaf returned invalid PID")
	}
	// The leaf itself must NOT be cached: only internal pages were read.
	if pool2.Contains(pid) {
		t.Fatal("FindLeaf fetched the leaf page")
	}
}

func TestTraversalChargesClock(t *testing.T) {
	e := newEnv(t, 512)
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	before := e.clock.Now()
	if _, _, err := e.tree.Search(999); err != nil {
		t.Fatal(err)
	}
	if e.clock.Now() == before {
		t.Fatal("search did not charge the clock")
	}
}

// TestQuickTreeMatchesModel drives random operations against a map
// model and checks full equivalence plus invariants.
func TestQuickTreeMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, 512)
		model := make(map[uint64][]byte)
		for op := 0; op < 1200; op++ {
			k := uint64(rng.Intn(400))
			switch rng.Intn(4) {
			case 0, 1: // insert
				v := make([]byte, rng.Intn(40)+1)
				rng.Read(v)
				err := insertAt(e.tree, k, v, e.lsn())
				if _, exists := model[k]; exists {
					if !errors.Is(err, ErrKeyExists) {
						t.Logf("seed %d: insert dup %d: %v", seed, k, err)
						return false
					}
				} else if err != nil {
					t.Logf("seed %d: insert %d: %v", seed, k, err)
					return false
				} else {
					model[k] = v
				}
			case 2: // update
				v := make([]byte, rng.Intn(40)+1)
				rng.Read(v)
				err := e.update(k, v)
				if _, exists := model[k]; exists {
					if err != nil {
						t.Logf("seed %d: update %d: %v", seed, k, err)
						return false
					}
					model[k] = v
				} else if !errors.Is(err, ErrKeyNotFound) {
					t.Logf("seed %d: update missing %d: %v", seed, k, err)
					return false
				}
			case 3: // delete
				err := deleteAt(e.tree, k, e.lsn())
				if _, exists := model[k]; exists {
					if err != nil {
						t.Logf("seed %d: delete %d: %v", seed, k, err)
						return false
					}
					delete(model, k)
				} else if !errors.Is(err, ErrKeyNotFound) {
					t.Logf("seed %d: delete missing %d: %v", seed, k, err)
					return false
				}
			}
		}
		if err := e.tree.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got := make(map[uint64][]byte)
		if err := e.tree.Scan(func(k uint64, v []byte) error {
			got[k] = append([]byte(nil), v...)
			return nil
		}); err != nil {
			t.Logf("seed %d: scan: %v", seed, err)
			return false
		}
		if len(got) != len(model) {
			t.Logf("seed %d: size %d != model %d", seed, len(got), len(model))
			return false
		}
		for k, v := range model {
			if !bytes.Equal(got[k], v) {
				t.Logf("seed %d: mismatch at key %d", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitSMORecordImagesMatchCache verifies SMO record after-images
// reflect the page state at SMO completion, so replaying them restores
// the structure.
func TestSplitSMORecordImagesMatchCache(t *testing.T) {
	e := newEnv(t, 256)
	for k := uint64(0); k < 600; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	e.log.Flush()
	sc := e.log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	smoSeen := 0
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		smo, isSMO := rec.(*wal.SMORec)
		if !isSMO {
			continue
		}
		smoSeen++
		for _, img := range smo.Images {
			if len(img.Data) != e.disk.Config().PageSize {
				t.Fatalf("SMO image for page %d has %d bytes", img.PageID, len(img.Data))
			}
		}
		_ = lsn
	}
	if smoSeen == 0 {
		t.Fatal("no SMO records found")
	}
}

// contendedSMOLogger shares its log with an appender the tree's plane
// does not exclude: before each of the first few SMO append attempts —
// retries included, so one split can lose several reservations in a
// row — it lets a foreign record take the reserved LSN.
type contendedSMOLogger struct {
	walSMOLogger
	steals *int
}

func (l contendedSMOLogger) AppendSMO(r *wal.SMORec, at wal.LSN) bool {
	if *l.steals > 0 {
		*l.steals--
		l.log.MustAppend(&wal.BeginCkptRec{})
	}
	return l.walSMOLogger.AppendSMO(r, at)
}

// TestSMOReservationLostToConcurrentAppend: a record another goroutine
// appends between an SMO's LSN reservation and its append must cost a
// restamp, not the split — every SMO record's images carry the LSN the
// record actually got.
func TestSMOReservationLostToConcurrentAppend(t *testing.T) {
	e := newEnv(t, 256)
	steals := 5
	e.tree.SetSMOLogger(contendedSMOLogger{walSMOLogger{e.log}, &steals})
	for k := uint64(0); k < 600; k++ {
		if err := insertAt(e.tree, k, val(k), e.lsn()); err != nil {
			t.Fatal(err)
		}
	}
	if steals != 0 {
		t.Fatalf("%d reservations never contended: too few splits", steals)
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	e.log.Flush()
	sc := e.log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	smoSeen := 0
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		smo, isSMO := rec.(*wal.SMORec)
		if !isSMO {
			continue
		}
		smoSeen++
		for _, img := range smo.Images {
			if got := page.WrapShared(img.Data).LSN(); got != uint64(lsn) {
				t.Errorf("SMO record at %v carries an image of page %d stamped %d", lsn, img.PageID, got)
			}
		}
	}
	if smoSeen == 0 {
		t.Fatal("no SMO records found")
	}
}
