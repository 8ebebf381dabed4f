package page

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

const testPageSize = 1024

func newLeaf(t *testing.T) *Page {
	t.Helper()
	return New(testPageSize, TypeLeaf)
}

// TestNewIsFormat: a page made over fresh bytes is byte for byte the
// page formatData makes of bytes that held anything before.
func TestNewIsFormat(t *testing.T) {
	for _, typ := range []Type{TypeLeaf, TypeInternal, TypeMeta} {
		used := bytes.Repeat([]byte{0xA5}, testPageSize)
		if got, want := New(testPageSize, typ).Bytes(), formatData(used, typ).Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%v: New differs from formatData", typ)
		}
	}
}

func TestFormatEmpty(t *testing.T) {
	p := newLeaf(t)
	if p.NumSlots() != 0 {
		t.Fatalf("new page has %d slots, want 0", p.NumSlots())
	}
	if p.Type() != TypeLeaf {
		t.Fatalf("type = %v, want leaf", p.Type())
	}
	if p.LSN() != 0 {
		t.Fatalf("pLSN = %d, want 0", p.LSN())
	}
	if err := p.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	want := testPageSize - headerSize - slotSize
	if got := p.FreeSpace(); got != want {
		t.Fatalf("FreeSpace = %d, want %d", got, want)
	}
}

func TestInsertSearch(t *testing.T) {
	p := newLeaf(t)
	keys := []uint64{50, 10, 30, 20, 40}
	for _, k := range keys {
		if err := p.Insert(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if p.NumSlots() != len(keys) {
		t.Fatalf("NumSlots = %d, want %d", p.NumSlots(), len(keys))
	}
	// Slots must be in sorted key order.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if got := p.KeyAt(i); got != k {
			t.Fatalf("KeyAt(%d) = %d, want %d", i, got, k)
		}
		idx, found := p.Search(k)
		if !found || idx != i {
			t.Fatalf("Search(%d) = (%d,%v), want (%d,true)", k, idx, found, i)
		}
		if got := string(p.ValueAt(i)); got != fmt.Sprintf("v%d", k) {
			t.Fatalf("ValueAt(%d) = %q", i, got)
		}
	}
	if err := p.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	p := newLeaf(t)
	if err := p.Insert(7, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(7, []byte("b")); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("duplicate insert: err = %v, want ErrKeyExists", err)
	}
}

func TestSearchMissing(t *testing.T) {
	p := newLeaf(t)
	for _, k := range []uint64{10, 20, 30} {
		if err := p.Insert(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	idx, found := p.Search(25)
	if found || idx != 2 {
		t.Fatalf("Search(25) = (%d,%v), want (2,false)", idx, found)
	}
	idx, found = p.Search(5)
	if found || idx != 0 {
		t.Fatalf("Search(5) = (%d,%v), want (0,false)", idx, found)
	}
	idx, found = p.Search(99)
	if found || idx != 3 {
		t.Fatalf("Search(99) = (%d,%v), want (3,false)", idx, found)
	}
}

// The Update tests drive Patch with a whole-row patch (replaceWith), the
// shape of a forward update.

func TestUpdateSameSize(t *testing.T) {
	p := newLeaf(t)
	if err := p.Insert(1, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := p.Patch(1, replaceWith([]byte("bbbb"))); err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if got := string(p.ValueAt(0)); got != "bbbb" {
		t.Fatalf("value = %q, want bbbb", got)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateResize(t *testing.T) {
	p := newLeaf(t)
	if err := p.Insert(1, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(2, []byte("other")); err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("x"), 100)
	if err := p.Patch(1, replaceWith(long)); err != nil {
		t.Fatalf("grow update: %v", err)
	}
	if !bytes.Equal(p.ValueAt(0), long) {
		t.Fatal("grown value mismatch")
	}
	if err := p.Patch(1, replaceWith([]byte("y"))); err != nil {
		t.Fatalf("shrink update: %v", err)
	}
	if got := string(p.ValueAt(0)); got != "y" {
		t.Fatalf("shrunk value = %q", got)
	}
	if got := string(p.ValueAt(1)); got != "other" {
		t.Fatalf("neighbour disturbed: %q", got)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMissing(t *testing.T) {
	p := newLeaf(t)
	if err := p.Patch(42, replaceWith([]byte("v"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	p := newLeaf(t)
	for k := uint64(0); k < 10; k++ {
		if err := p.Insert(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, found := p.Search(5); found {
		t.Fatal("key 5 still present after delete")
	}
	if p.NumSlots() != 9 {
		t.Fatalf("NumSlots = %d, want 9", p.NumSlots())
	}
	if err := p.Delete(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPageFull(t *testing.T) {
	p := newLeaf(t)
	val := bytes.Repeat([]byte("v"), 100)
	var n uint64
	for {
		if err := p.Insert(n, val); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no inserts fit")
	}
	// Page must still be intact.
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if uint64(p.NumSlots()) != n {
		t.Fatalf("NumSlots = %d, want %d", p.NumSlots(), n)
	}
}

func TestCompactionReclaimsFragmentedSpace(t *testing.T) {
	p := newLeaf(t)
	val := bytes.Repeat([]byte("v"), 60)
	var keys []uint64
	for k := uint64(0); ; k++ {
		if err := p.Insert(k, val); err != nil {
			break
		}
		keys = append(keys, k)
	}
	// Delete every other key to fragment the heap.
	for i := 0; i < len(keys); i += 2 {
		if err := p.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A large insert now only fits via compaction.
	big := bytes.Repeat([]byte("w"), 200)
	if err := p.Insert(1_000_000, big); err != nil {
		t.Fatalf("insert after fragmentation: %v", err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	idx, found := p.Search(1_000_000)
	if !found || !bytes.Equal(p.ValueAt(idx), big) {
		t.Fatal("compacted insert lost data")
	}
	// Survivors unaffected.
	for i := 1; i < len(keys); i += 2 {
		idx, found := p.Search(keys[i])
		if !found || !bytes.Equal(p.ValueAt(idx), val) {
			t.Fatalf("survivor %d corrupted", keys[i])
		}
	}
}

func TestUpdateGrowTooLargeLeavesPageIntact(t *testing.T) {
	p := newLeaf(t)
	val := bytes.Repeat([]byte("v"), 100)
	var n uint64
	for {
		if err := p.Insert(n, val); err != nil {
			break
		}
		n++
	}
	huge := bytes.Repeat([]byte("h"), testPageSize)
	if err := p.Patch(0, replaceWith(huge)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	// Original value restored.
	idx, found := p.Search(0)
	if !found || !bytes.Equal(p.ValueAt(idx), val) {
		t.Fatal("failed grow-update lost the original value")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitInto(t *testing.T) {
	p := newLeaf(t)
	val := bytes.Repeat([]byte("v"), 40)
	var keys []uint64
	for k := uint64(0); ; k += 2 {
		if err := p.Insert(k, val); err != nil {
			break
		}
		keys = append(keys, k)
	}
	dst := newLeaf(t)
	sep, err := p.SplitInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSlots()+dst.NumSlots() != len(keys) {
		t.Fatalf("cells lost: %d + %d != %d", p.NumSlots(), dst.NumSlots(), len(keys))
	}
	if got := dst.KeyAt(0); got != sep {
		t.Fatalf("separator %d != first right key %d", sep, got)
	}
	if p.KeyAt(p.NumSlots()-1) >= sep {
		t.Fatal("left page has keys >= separator")
	}
	for _, pg := range []*Page{p, dst} {
		if err := pg.Check(); err != nil {
			t.Fatal(err)
		}
	}
	// All keys present in exactly one half.
	for _, k := range keys {
		_, inL := p.Search(k)
		_, inR := dst.Search(k)
		if inL == inR {
			t.Fatalf("key %d: inLeft=%v inRight=%v", k, inL, inR)
		}
	}
}

func TestLSNRoundTrip(t *testing.T) {
	p := newLeaf(t)
	p.SetLSN(0xDEADBEEF12345678)
	if got := p.LSN(); got != 0xDEADBEEF12345678 {
		t.Fatalf("LSN = %#x", got)
	}
	// LSN must survive re-wrapping (persistence round trip).
	q := wrap(p.Bytes())
	if got := q.LSN(); got != 0xDEADBEEF12345678 {
		t.Fatalf("wrapped LSN = %#x", got)
	}
}

func TestExtraRoundTrip(t *testing.T) {
	p := newLeaf(t)
	p.SetExtra(424242)
	if got := p.Extra(); got != 424242 {
		t.Fatalf("Extra = %d", got)
	}
}

// TestQuickRandomOps drives a page with random insert/update/delete
// against a map model and verifies contents and invariants throughout.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(testPageSize, TypeLeaf)
		model := make(map[uint64][]byte)
		for op := 0; op < 300; op++ {
			k := uint64(rng.Intn(40))
			switch rng.Intn(3) {
			case 0: // insert
				v := make([]byte, rng.Intn(30)+1)
				rng.Read(v)
				err := p.Insert(k, v)
				_, exists := model[k]
				switch {
				case exists && !errors.Is(err, ErrKeyExists):
					t.Logf("insert existing %d: err=%v", k, err)
					return false
				case !exists && err == nil:
					model[k] = v
				case !exists && errors.Is(err, ErrPageFull):
					// acceptable
				case !exists && err != nil:
					t.Logf("insert %d: %v", k, err)
					return false
				}
			case 1: // update
				v := make([]byte, rng.Intn(30)+1)
				rng.Read(v)
				err := p.Patch(k, replaceWith(v))
				_, exists := model[k]
				switch {
				case !exists && !errors.Is(err, ErrNotFound):
					t.Logf("update missing %d: err=%v", k, err)
					return false
				case exists && err == nil:
					model[k] = v
				case exists && errors.Is(err, ErrPageFull):
					// value keeps old content
				case exists && err != nil:
					t.Logf("update %d: %v", k, err)
					return false
				}
			case 2: // delete
				err := p.Delete(k)
				_, exists := model[k]
				if exists != (err == nil) {
					t.Logf("delete %d: exists=%v err=%v", k, exists, err)
					return false
				}
				delete(model, k)
			}
			if err := p.Check(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		// Final content equivalence.
		if p.NumSlots() != len(model) {
			t.Logf("slot count %d != model %d", p.NumSlots(), len(model))
			return false
		}
		for k, v := range model {
			idx, found := p.Search(k)
			if !found || !bytes.Equal(p.ValueAt(idx), v) {
				t.Logf("content mismatch at key %d", k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCellSize(t *testing.T) {
	if CellSize(0) != 8 || CellSize(100) != 108 {
		t.Fatalf("CellSize wrong: %d %d", CellSize(0), CellSize(100))
	}
}

// TestAppendMatchesInsert: appending ascending keys leaves the page
// byte for byte as inserting them does.
func TestAppendMatchesInsert(t *testing.T) {
	a, b := newLeaf(t), newLeaf(t)
	for k := uint64(1); ; k++ {
		v := bytes.Repeat([]byte{byte(k)}, int(k%7)+1)
		errA, errB := a.Append(k*3, v), b.Insert(k*3, v)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("key %d: Append err %v, Insert err %v", k*3, errA, errB)
		}
		if errA != nil {
			if !errors.Is(errA, ErrPageFull) {
				t.Fatalf("Append: %v, want ErrPageFull", errA)
			}
			break
		}
	}
	if a.NumSlots() < 10 {
		t.Fatalf("only %d cells fit", a.NumSlots())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("appended page differs from inserted page")
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsNonAscendingKey(t *testing.T) {
	p := newLeaf(t)
	for _, k := range []uint64{10, 20} {
		if err := p.Append(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]byte(nil), p.Bytes()...)
	for _, k := range []uint64{20, 15, 0} {
		if err := p.Append(k, []byte("w")); !errors.Is(err, ErrNotAscending) {
			t.Fatalf("Append(%d) after 20: %v, want ErrNotAscending", k, err)
		}
	}
	if !bytes.Equal(before, p.Bytes()) {
		t.Fatal("a rejected Append changed the page")
	}
}

func TestAppendFullLeavesPageUntouched(t *testing.T) {
	p := newLeaf(t)
	if err := p.Append(1, make([]byte, MaxValueLen(testPageSize)+1)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("oversized value on an empty page: %v, want ErrPageFull", err)
	}
	if err := p.Append(1, make([]byte, MaxValueLen(testPageSize))); err != nil {
		t.Fatalf("MaxValueLen value on an empty page: %v", err)
	}
	before := append([]byte(nil), p.Bytes()...)
	if err := p.Append(2, nil); !errors.Is(err, ErrPageFull) {
		t.Fatalf("Append to a full page: %v, want ErrPageFull", err)
	}
	if !bytes.Equal(before, p.Bytes()) {
		t.Fatal("a failed Append changed the page")
	}
}
