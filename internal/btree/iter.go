package btree

import (
	"errors"
	"fmt"

	"logrec/internal/page"
	"logrec/internal/storage"
)

// Scan walks every row in key order, invoking fn(key, value). The value
// slice is only valid during the call. Scanning fetches leaves through
// the pool (charging IO on misses); verification oracles reset stats or
// use a fresh clock around it.
func (t *Tree) Scan(fn func(key uint64, val []byte) error) error {
	pid, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	return t.scanFrom(pid, 0, ^uint64(0), nil, fn)
}

// ScanRange walks rows with lo ≤ key ≤ hi in key order. It locates the
// leaf owning lo through the index and follows sibling links, the
// access path Deuteronomy's key-range operations use [13].
func (t *Tree) ScanRange(lo, hi uint64, fn func(key uint64, val []byte) error) error {
	return t.ScanRangeFiltered(lo, hi, nil, fn)
}

// ScanRangeFiltered is ScanRange with a predicate evaluated against the
// page-resident row before fn sees it: rows failing pred are dropped
// inside the iterator, so a pushed-down filter costs no row copy and no
// decode above this layer. A nil pred accepts every row. Like fn's, the
// value slice pred receives is only valid during the call.
func (t *Tree) ScanRangeFiltered(lo, hi uint64, pred func(key uint64, val []byte) bool, fn func(key uint64, val []byte) error) error {
	if hi < lo {
		return nil
	}
	pid, err := t.FindLeaf(lo)
	if err != nil {
		return err
	}
	return t.scanFrom(pid, lo, hi, pred, fn)
}

// errStopScan terminates a scan early once keys exceed the bound.
var errStopScan = errors.New("btree: stop scan")

func (t *Tree) scanFrom(pid storage.PageID, lo, hi uint64, pred func(uint64, []byte) bool, fn func(uint64, []byte) error) error {
	for pid != storage.InvalidPageID {
		f, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		t.visit()
		p := &f.Page
		if got := p.Type(); got != page.TypeLeaf {
			t.pool.Unpin(f)
			return fmt.Errorf("btree: scan reached %v page %d", got, pid)
		}
		start, _ := p.Search(lo)
		for i := start; i < p.NumSlots(); i++ {
			k := p.KeyAt(i)
			if k > hi {
				t.pool.Unpin(f)
				return nil
			}
			if pred != nil && !pred(k, p.ValueAt(i)) {
				continue
			}
			if err := fn(k, p.ValueAt(i)); err != nil {
				t.pool.Unpin(f)
				if errors.Is(err, errStopScan) {
					return nil
				}
				return err
			}
		}
		next := storage.PageID(p.Extra())
		t.pool.Unpin(f)
		pid = next
	}
	return nil
}

func (t *Tree) leftmostLeaf() (storage.PageID, error) {
	pid := t.meta.Root
	for level := t.meta.Height; level > 1; level-- {
		f, err := t.pool.Get(pid)
		if err != nil {
			return storage.InvalidPageID, err
		}
		next := storage.PageID(f.Page.Extra())
		t.pool.Unpin(f)
		pid = next
	}
	return pid, nil
}

// Count returns the number of rows in the tree.
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(func(uint64, []byte) error { n++; return nil })
	return n, err
}

// IndexPIDs returns the PIDs of every internal (index) page, root
// included, in breadth-first order. The DC's index-preload prefetch
// (Appendix A.1) loads exactly these pages at the start of recovery.
func (t *Tree) IndexPIDs() ([]storage.PageID, error) {
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

// CheckInvariants validates the whole tree: page-level structure, key
// ordering across leaves, separator correctness (every key in a child
// subtree falls within the parent's routing bounds) and uniform leaf
// depth. Used by unit and property tests.
func (t *Tree) CheckInvariants() error {
	var prev uint64
	first := true
	depth, err := t.checkNode(t.meta.Root, int(t.meta.Height), 0, ^uint64(0), true, &prev, &first)
	if err != nil {
		return err
	}
	if depth != int(t.meta.Height) {
		return fmt.Errorf("btree: measured depth %d != meta height %d", depth, t.meta.Height)
	}
	return nil
}

// checkNode validates the subtree at pid, whose keys must lie in
// [lo, hi). It returns the subtree depth.
func (t *Tree) checkNode(pid storage.PageID, level int, lo, hi uint64, hiOpen bool, prev *uint64, first *bool) (int, error) {
	f, err := t.pool.Get(pid)
	if err != nil {
		return 0, err
	}
	defer t.pool.Unpin(f)
	p := &f.Page
	if err := p.Check(); err != nil {
		return 0, fmt.Errorf("page %d: %w", pid, err)
	}
	if level == 1 {
		if got := p.Type(); got != page.TypeLeaf {
			return 0, fmt.Errorf("btree: page %d at leaf level has type %v", pid, got)
		}
		for i := 0; i < p.NumSlots(); i++ {
			k := p.KeyAt(i)
			if k < lo || (!hiOpen && k >= hi) {
				return 0, fmt.Errorf("btree: leaf %d key %d outside routing bounds [%d,%d)", pid, k, lo, hi)
			}
			if !*first && k <= *prev {
				return 0, fmt.Errorf("btree: global key order violated at leaf %d key %d (prev %d)", pid, k, *prev)
			}
			*prev, *first = k, false
		}
		return 1, nil
	}
	if got := p.Type(); got != page.TypeInternal {
		return 0, fmt.Errorf("btree: page %d at level %d has type %v", pid, level, got)
	}
	n := p.NumSlots()
	// n == 0 is legal: an append split leaves a fresh internal page
	// with only its leftmost child until the next separator arrives.
	// Child subtree bounds: leftmost child covers [lo, key0); child of
	// separator i covers [key_i, key_{i+1}).
	childLo := lo
	childHi := hi
	childOpen := hiOpen
	if n > 0 {
		childHi = p.KeyAt(0)
		childOpen = false
	}
	depth0, err := t.checkNode(storage.PageID(p.Extra()), level-1, childLo, childHi, childOpen, prev, first)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		k := p.KeyAt(i)
		if k < lo || (!hiOpen && k >= hi) {
			return 0, fmt.Errorf("btree: internal %d separator %d outside bounds [%d,%d)", pid, k, lo, hi)
		}
		cLo := k
		cHi := hi
		cOpen := hiOpen
		if i+1 < n {
			cHi = p.KeyAt(i + 1)
			cOpen = false
		}
		d, err := t.checkNode(childPID(p.ValueAt(i)), level-1, cLo, cHi, cOpen, prev, first)
		if err != nil {
			return 0, err
		}
		if d != depth0 {
			return 0, fmt.Errorf("btree: uneven leaf depth under internal %d", pid)
		}
	}
	return depth0 + 1, nil
}
