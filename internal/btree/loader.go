package btree

import (
	"errors"
	"fmt"

	"logrec/internal/buffer"
	"logrec/internal/page"
	"logrec/internal/wal"
)

// Loader builds an empty tree from rows arriving in strictly ascending
// key order — the initial bulk load. It keeps the right spine (the
// rightmost page of every level) pinned and appends each row to the
// open leaf, so a row costs one page.Append: no traversal, no pool
// request, no search.
//
// The tree it builds is, page for page and byte for byte, the one the
// same rows produce through Insert on an unlogged tree. Ascending
// inserts only ever take the append-split branches of splitLeaf and
// insertIntoParent (a full rightmost page stays 100% full and gets an
// empty right sibling; the pending key moves up as the separator), and
// the loader allocates in those branches' order: the new leaf, then a
// new right page for each full level bottom-up, then a new root. Equal
// allocation order means equal PIDs, hence equal sibling and child
// pointers, page images and Meta.
//
// A page leaves the spine when its right sibling opens; only then is it
// marked dirty, once, and unpinned, so the lazywriter writes each page
// behind the load a single time. Between Add calls the pins held equal
// the tree height and the tree is well-formed (searchable).
type Loader struct {
	t *Tree
	// spine[i] is the pinned rightmost page of level i (0 = leaf); the
	// last element is the root. nil after Finish.
	spine []*buffer.Frame

	// last is the previous row's key, once started.
	last    uint64
	started bool
	maxVal  int
}

// NewLoader starts a bulk load. The tree must be empty and unlogged
// (no SMO logger installed): the load writes no log records.
func (t *Tree) NewLoader() (*Loader, error) {
	if t.smo != nil {
		return nil, errors.New("btree: bulk load needs an unlogged tree (SMO logger installed)")
	}
	if t.meta.Height != 1 {
		return nil, fmt.Errorf("btree: bulk load needs an empty tree (height %d)", t.meta.Height)
	}
	root, err := t.pool.Get(t.meta.Root)
	if err != nil {
		return nil, fmt.Errorf("btree: bulk load fetching root %d: %w", t.meta.Root, err)
	}
	if n := root.Page.NumSlots(); root.Page.Type() != page.TypeLeaf || n != 0 {
		t.pool.Unpin(root)
		return nil, fmt.Errorf("btree: bulk load needs an empty tree (root is a %v page with %d rows)", root.Page.Type(), n)
	}
	return &Loader{
		t:      t,
		spine:  []*buffer.Frame{root},
		maxVal: page.MaxValueLen(root.Page.Size()),
	}, nil
}

// Add appends one row. key must exceed the previous row's key. val is
// copied into the page before Add returns.
func (l *Loader) Add(key uint64, val []byte) error {
	if l.spine == nil {
		return errors.New("btree: Add on a finished bulk load")
	}
	if l.started && key <= l.last {
		return fmt.Errorf("btree: bulk load keys must ascend strictly: %d after %d", key, l.last)
	}
	if len(val) > l.maxVal {
		return fmt.Errorf("%w: key %d has %d bytes, an empty page holds %d", ErrValueTooLarge, key, len(val), l.maxVal)
	}
	// FreeSpace ≥ CellSize is exactly Append's room test: asking first
	// spares formatting an ErrPageFull for every leaf that fills.
	if l.spine[0].Page.FreeSpace() < page.CellSize(len(val)) {
		if err := l.openRightLeaf(key); err != nil {
			return err
		}
	}
	if err := l.spine[0].Page.Append(key, val); err != nil {
		return fmt.Errorf("btree: bulk load key %d: %w", key, err)
	}
	l.last, l.started = key, true
	return nil
}

// newPage allocates the next PID as a pinned, formatted page.
func (l *Loader) newPage(typ page.Type) (*buffer.Frame, error) {
	pid := l.t.allocPID()
	f, err := l.t.pool.NewPage(pid, typ)
	if err != nil {
		return nil, fmt.Errorf("btree: bulk load allocating page %d: %w", pid, err)
	}
	return f, nil
}

// openRightLeaf is the append split: the full open leaf gets an empty
// right sibling and sep, the pending key, goes up the spine as its
// separator. A level with no room for the separator gets an empty right
// page of its own whose leftmost child is the page just opened below,
// and the separator keeps climbing; past the root, a new root is grown.
func (l *Loader) openRightLeaf(sep uint64) error {
	leaf := l.spine[0]
	right, err := l.newPage(page.TypeLeaf)
	if err != nil {
		return err
	}
	right.Page.SetExtra(leaf.Page.Extra())
	leaf.Page.SetExtra(uint32(right.PID))
	l.spine[0] = right
	// done collects the pages this split takes off the spine.
	done := []*buffer.Frame{leaf}

	// (left, opened) are the page that filled and its new right sibling
	// one level down.
	left, opened := leaf.PID, right.PID
	for level := 1; ; level++ {
		if level == len(l.spine) {
			root, err := l.newPage(page.TypeInternal)
			if err != nil {
				return err
			}
			root.Page.SetExtra(uint32(left))
			if err := root.Page.Append(sep, encodePID(opened)); err != nil {
				return fmt.Errorf("btree: seeding new root: %w", err)
			}
			l.spine = append(l.spine, root)
			l.t.meta.Root = root.PID
			l.t.meta.Height++
			break
		}
		parent := l.spine[level]
		err := parent.Page.Append(sep, encodePID(opened))
		if err == nil {
			break
		}
		if !errors.Is(err, page.ErrPageFull) {
			return err
		}
		right, err := l.newPage(page.TypeInternal)
		if err != nil {
			return err
		}
		right.Page.SetExtra(uint32(opened))
		l.spine[level] = right
		done = append(done, parent)
		left, opened = parent.PID, right.PID
	}
	l.release(done)
	return nil
}

// release marks finished pages dirty and drops their pins.
func (l *Loader) release(frames []*buffer.Frame) {
	for _, f := range frames {
		l.t.pool.MarkDirty(f, wal.NilLSN)
		l.t.pool.Unpin(f)
	}
}

// Finish releases the spine. The tree is complete and every page of it
// is in the pool, dirty or already written behind; the caller flushes.
func (l *Loader) Finish() {
	l.release(l.spine)
	l.spine = nil
}
