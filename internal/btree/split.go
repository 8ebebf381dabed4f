package btree

import (
	"errors"
	"fmt"

	"logrec/internal/buffer"
	"logrec/internal/page"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// smoBuild accumulates the pages modified by one structure modification
// so they can be stamped with the SMO record's LSN and logged as a
// single atomic SMO record (§4: the DC logs B-tree SMOs so the tree can
// be made well-formed before TC redo resubmits logical operations).
type smoBuild struct {
	tree   *Tree
	frames map[storage.PageID]*buffer.Frame
	order  []storage.PageID
}

func (t *Tree) newSMOBuild() *smoBuild {
	return &smoBuild{tree: t, frames: make(map[storage.PageID]*buffer.Frame)}
}

// touch registers a pinned frame as modified by the SMO. The build
// takes over the pin.
func (b *smoBuild) touch(f *buffer.Frame) {
	if _, ok := b.frames[f.PID]; ok {
		// Already held; drop the extra pin.
		b.tree.pool.Unpin(f)
		return
	}
	b.frames[f.PID] = f
	b.order = append(b.order, f.PID)
}

// finish stamps every touched page with the SMO record's LSN, marks
// them dirty, logs the SMO record with after-images and the new tree
// metadata, and releases the pins. Nothing this goroutine does may
// append to the log between the LSN reservation and the SMO append: the
// lazywriter is suspended for the duration (a background flush would let
// the flush tracker log its own record), and the onDirty notifications
// are deferred until after the append (the ∆ tracker emits a capacity
// record synchronously when NoteUpdate fills its dirty set). Other
// goroutines share the log — another shard's session, a commit record,
// neither of which needs this shard's plane — so the append is
// conditional on the reserved LSN, and when one of them got there first
// the pages are stamped again under a fresh reservation.
func (b *smoBuild) finish() error {
	b.tree.pool.SuspendCleaner()
	defer func() {
		for _, pid := range b.order {
			b.tree.pool.Unpin(b.frames[pid])
		}
		b.tree.pool.ResumeCleaner()
	}()
	t := b.tree
	if t.smo == nil {
		// Unlogged bulk load: just mark pages dirty with a nil LSN.
		for _, pid := range b.order {
			t.pool.MarkDirty(b.frames[pid], wal.NilLSN)
		}
		return nil
	}
	// A lost reservation costs one restamp; losing this many in a row
	// means the window is being broken from inside (see above), which
	// no retry can fix.
	const maxReservations = 1 << 16
	rec := &wal.SMORec{
		Meta: wal.TreeMeta{
			Root:    t.meta.Root,
			Height:  t.meta.Height,
			NextPID: t.meta.NextPID,
		},
	}
	for attempt := 0; ; attempt++ {
		if attempt == maxReservations {
			return fmt.Errorf("btree: SMO record lost its reserved LSN %d times in a row", attempt)
		}
		lsn := t.smo.NextLSN()
		rec.Images = rec.Images[:0]
		for _, pid := range b.order {
			f := b.frames[pid]
			f.Page.SetLSN(uint64(lsn))
			t.pool.MarkDirty(f, lsn)
			img := make([]byte, len(f.Page.Bytes()))
			copy(img, f.Page.Bytes())
			rec.Images = append(rec.Images, wal.PageImage{PageID: pid, Data: img})
		}
		if !t.smo.AppendSMO(rec, lsn) {
			continue
		}
		if t.onDirty != nil {
			for _, pid := range b.order {
				t.onDirty(pid, lsn)
			}
		}
		return nil
	}
}

// allocPID hands out the next page ID.
func (t *Tree) allocPID() storage.PageID {
	pid := t.meta.NextPID
	t.meta.NextPID++
	return pid
}

// splitLeaf splits the full leaf and installs the separator in its
// parent chain, splitting parents (and growing the root) as needed. The
// whole modification is logged as one SMO record.
//
// key is the pending insert that triggered the split. When the leaf is
// the rightmost and key appends past its largest key — the sequential
// load pattern — the split leaves the old leaf untouched and chains an
// empty right leaf (an append split), yielding ~100% fill instead of
// 50%, as production engines do for ascending inserts.
func (t *Tree) splitLeaf(leafPID storage.PageID, path []pathEntry, key uint64) error {
	b := t.newSMOBuild()

	leaf, err := t.pool.Get(leafPID)
	if err != nil {
		return err
	}
	b.touch(leaf)
	if got := leaf.Page.Type(); got != page.TypeLeaf {
		return fmt.Errorf("btree: splitLeaf on %v page %d", got, leafPID)
	}

	newPID := t.allocPID()
	right, err := t.pool.NewPage(newPID, page.TypeLeaf)
	if err != nil {
		return err
	}
	b.touch(right)

	var sep uint64
	n := leaf.Page.NumSlots()
	rightmost := storage.PageID(leaf.Page.Extra()) == storage.InvalidPageID
	if rightmost && n > 0 && key > leaf.Page.KeyAt(n-1) {
		// Append split: the new right leaf starts empty; the pending
		// key becomes the separator and will land there on retry.
		sep = key
	} else {
		sep, err = leaf.Page.SplitInto(&right.Page)
		if err != nil {
			return err
		}
	}
	// Chain leaf siblings: left -> right -> left's old sibling.
	right.Page.SetExtra(leaf.Page.Extra())
	leaf.Page.SetExtra(uint32(newPID))

	if err := t.insertIntoParent(b, path, len(path)-1, leafPID, sep, newPID); err != nil {
		return err
	}
	return b.finish()
}

// insertIntoParent installs (sep, newPID) in the internal page at
// path[level]; level == -1 grows a new root above leftPID.
func (t *Tree) insertIntoParent(b *smoBuild, path []pathEntry, level int, leftPID storage.PageID, sep uint64, newPID storage.PageID) error {
	if level < 0 {
		rootPID := t.allocPID()
		root, err := t.pool.NewPage(rootPID, page.TypeInternal)
		if err != nil {
			return err
		}
		b.touch(root)
		root.Page.SetExtra(uint32(leftPID))
		if err := root.Page.Insert(sep, encodePID(newPID)); err != nil {
			return fmt.Errorf("btree: seeding new root: %w", err)
		}
		t.meta.Root = rootPID
		t.meta.Height++
		return nil
	}

	parentPID := path[level].pid
	parent, err := t.pool.Get(parentPID)
	if err != nil {
		return err
	}
	b.touch(parent)

	err = parent.Page.Insert(sep, encodePID(newPID))
	if err == nil {
		return nil
	}
	if !errors.Is(err, page.ErrPageFull) {
		return err
	}

	// Append split for internal pages: when the new separator sorts
	// past every key in the full parent (sequential load), promote sep
	// itself and hang newPID as the leftmost child of an empty new
	// right page — the parent keeps 100% fill.
	if n := parent.Page.NumSlots(); n > 0 && sep > parent.Page.KeyAt(n-1) {
		rightPID := t.allocPID()
		right, err := t.pool.NewPage(rightPID, page.TypeInternal)
		if err != nil {
			return err
		}
		b.touch(right)
		right.Page.SetExtra(uint32(newPID))
		return t.insertIntoParent(b, path, level-1, parentPID, sep, rightPID)
	}

	// Parent is full: split it, promote its middle separator, then
	// place (sep, newPID) in whichever half now owns sep.
	promoted, rightPID, err := t.splitInternal(b, parent)
	if err != nil {
		return err
	}
	if err := t.insertIntoParent(b, path, level-1, parentPID, promoted, rightPID); err != nil {
		return err
	}
	target := parent
	if sep >= promoted {
		target = b.frames[rightPID]
	}
	if err := target.Page.Insert(sep, encodePID(newPID)); err != nil {
		return fmt.Errorf("btree: separator insert after parent split: %w", err)
	}
	return nil
}

// splitInternal splits a full internal page, returning the promoted
// separator and the new right page's PID. The promoted key moves up: it
// is removed from both halves, and its child becomes the right half's
// leftmost child.
func (t *Tree) splitInternal(b *smoBuild, f *buffer.Frame) (uint64, storage.PageID, error) {
	p := &f.Page
	n := p.NumSlots()
	if n < 3 {
		return 0, storage.InvalidPageID, fmt.Errorf("btree: internal split with only %d separators", n)
	}
	mid := n / 2
	promoted := p.KeyAt(mid)
	promotedChild := childPID(p.ValueAt(mid))

	rightPID := t.allocPID()
	right, err := t.pool.NewPage(rightPID, page.TypeInternal)
	if err != nil {
		return 0, storage.InvalidPageID, err
	}
	b.touch(right)
	right.Page.SetExtra(uint32(promotedChild))
	for i := mid + 1; i < n; i++ {
		if err := right.Page.Insert(p.KeyAt(i), p.ValueAt(i)); err != nil {
			return 0, storage.InvalidPageID, fmt.Errorf("btree: moving separators: %w", err)
		}
	}
	for i := n - 1; i >= mid; i-- {
		if err := p.Delete(p.KeyAt(i)); err != nil {
			return 0, storage.InvalidPageID, fmt.Errorf("btree: trimming split page: %w", err)
		}
	}
	p.Compact()
	return promoted, rightPID, nil
}
