package btree

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"logrec/internal/page"
)

// newLoadEnv is newEnv with the tree left unlogged, as before a bulk
// load.
func newLoadEnv(t *testing.T, poolPages int) *testEnv {
	t.Helper()
	e := newEnv(t, poolPages)
	e.tree.SetSMOLogger(nil)
	return e
}

func mustLoader(t *testing.T, e *testEnv) *Loader {
	t.Helper()
	l, err := e.tree.NewLoader()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoaderSpinePins: between Adds the loader pins exactly one page per
// level, so a 16-frame pool builds a three-level tree; Finish leaves
// nothing pinned.
func TestLoaderSpinePins(t *testing.T) {
	e := newLoadEnv(t, 16)
	l := mustLoader(t, e)
	v := make([]byte, 100)
	const rows = 12000
	for k := uint64(0); k < rows; k++ {
		if err := l.Add(k, v); err != nil {
			t.Fatalf("Add(%d): %v", k, err)
		}
		if pins, h := e.pool.PinnedCount(), int(e.tree.Meta().Height); pins != h {
			t.Fatalf("after key %d: %d frames pinned, tree height %d", k, pins, h)
		}
		if k%997 == 0 {
			// The tree is well-formed between Adds, not only at the end.
			if _, found, err := e.tree.Search(k / 2); err != nil || !found {
				t.Fatalf("mid-load Search(%d) after key %d: found=%v err=%v", k/2, k, found, err)
			}
		}
	}
	if h := e.tree.Meta().Height; h != 3 {
		t.Fatalf("height %d, want 3", h)
	}
	l.Finish()
	if pins := e.pool.PinnedCount(); pins != 0 {
		t.Fatalf("%d frames still pinned after Finish", pins)
	}
	if err := l.Add(rows, v); err == nil {
		t.Fatal("Add after Finish succeeded")
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := e.tree.Count(); err != nil || n != rows {
		t.Fatalf("Count = %d, %v; want %d", n, err, rows)
	}
}

// TestLoaderRejectsNonAscendingKeys: a duplicate or descending key is
// refused with both keys named and nothing changed — not even when it
// arrives at a full leaf, where accepting it would have opened a
// sibling.
func TestLoaderRejectsNonAscendingKeys(t *testing.T) {
	e := newLoadEnv(t, 64)
	l := mustLoader(t, e)
	v := make([]byte, 100)
	perLeaf := 0
	for k := uint64(10); e.tree.Meta().NextPID == e.tree.Meta().Root+1; k += 10 {
		if err := l.Add(k, v); err != nil {
			t.Fatal(err)
		}
		perLeaf++
	}
	perLeaf-- // the last Add opened the second leaf
	// Fill the second leaf exactly.
	last := uint64(10 * (perLeaf + 1))
	for i := 1; i < perLeaf; i++ {
		last += 10
		if err := l.Add(last, v); err != nil {
			t.Fatal(err)
		}
	}
	before := e.tree.Meta()
	for _, k := range []uint64{last, last - 5, 0} {
		err := l.Add(k, v)
		if err == nil {
			t.Fatalf("Add(%d) after %d succeeded", k, last)
		}
		for _, want := range []string{fmt.Sprint(k), fmt.Sprint(last)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name key %s", err, want)
			}
		}
	}
	if got := e.tree.Meta(); got != before {
		t.Fatalf("rejected keys changed the tree: %+v -> %+v", before, got)
	}
	// The load carries on where it was.
	if err := l.Add(last+10, v); err != nil {
		t.Fatal(err)
	}
	if got := e.tree.Meta().NextPID; got != before.NextPID+1 {
		t.Fatalf("NextPID %d after the next row, want %d (one new leaf)", got, before.NextPID+1)
	}
	l.Finish()
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.tree.Count(); n != 2*perLeaf+1 {
		t.Fatalf("Count = %d, want %d", n, 2*perLeaf+1)
	}
}

func TestLoaderValueTooLarge(t *testing.T) {
	e := newLoadEnv(t, 64)
	l := mustLoader(t, e)
	max := page.MaxValueLen(e.disk.Config().PageSize)
	before := e.tree.Meta()
	if err := l.Add(1, make([]byte, max+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("Add of %d bytes: %v, want ErrValueTooLarge", max+1, err)
	}
	if got := e.tree.Meta(); got != before {
		t.Fatalf("rejected value changed the tree: %+v -> %+v", before, got)
	}
	for k := uint64(1); k <= 3; k++ {
		if err := l.Add(k, make([]byte, max)); err != nil {
			t.Fatalf("Add of %d bytes: %v", max, err)
		}
	}
	l.Finish()
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.tree.Count(); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
}

func TestNewLoaderNeedsEmptyUnloggedTree(t *testing.T) {
	e := newEnv(t, 64)
	if _, err := e.tree.NewLoader(); err == nil {
		t.Fatal("NewLoader with an SMO logger installed succeeded")
	}
	e.tree.SetSMOLogger(nil)
	if err := e.tree.Insert(1, val(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.tree.NewLoader(); err == nil {
		t.Fatal("NewLoader on a tree holding a row succeeded")
	}
	if pins := e.pool.PinnedCount(); pins != 0 {
		t.Fatalf("refused NewLoader left %d frames pinned", pins)
	}
	for k := uint64(2); e.tree.Meta().Height == 1; k++ {
		if err := e.tree.Insert(k, make([]byte, 500), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.tree.NewLoader(); err == nil {
		t.Fatal("NewLoader on a two-level tree succeeded")
	}
}
