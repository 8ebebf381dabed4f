// Package btree implements the DC's clustered index: a B+tree keyed by
// uint64 with rows stored in the leaves, built on the buffer pool.
//
// Structure modifications (page splits, root growth) are logged as
// physiological SMO records carrying after-images of every page the SMO
// touched plus the resulting tree metadata. DC recovery replays SMO
// records before any transactional redo so the tree is well-formed when
// logical redo re-traverses it (§1.2, §4 of the paper).
//
// The tree is single-writer by design: Deuteronomy's TC provides
// concurrency control above the DC (lock manager, §1.1), so the DC's
// storage structures run serially in this reproduction.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"logrec/internal/buffer"
	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// Errors returned by tree operations.
var (
	// ErrKeyNotFound indicates the key is absent from the tree.
	ErrKeyNotFound = errors.New("btree: key not found")
	// ErrKeyExists indicates an insert of an existing key.
	ErrKeyExists = errors.New("btree: key exists")
	// ErrValueTooLarge indicates a value that cannot fit a page even
	// after splitting.
	ErrValueTooLarge = errors.New("btree: value too large for page")
)

// Meta is the recoverable tree metadata, persisted in the DB metadata
// page at checkpoints and carried, all but TableID, by every SMO record.
type Meta struct {
	TableID wal.TableID
	Root    storage.PageID
	// Height is the number of levels; 1 means the root is a leaf.
	Height uint32
	// NextPID is the page allocator cursor: the PID the next allocated
	// page will receive. Allocation is bump-pointer; pages are never
	// reclaimed (deletes do not merge, as in many production engines).
	NextPID storage.PageID
}

// SMOLogger appends SMO records to the shared log. NextLSN returns the
// LSN the next append will be assigned, so page images can embed their
// own record's LSN as pLSN before encoding; AppendSMO appends the record
// only if it still lands there, and reports false when another appender
// on the shared log (another shard's session, a commit record) took
// that LSN first.
type SMOLogger interface {
	NextLSN() wal.LSN
	AppendSMO(rec *wal.SMORec, at wal.LSN) bool
}

// CPUCosts charges the virtual clock for tree computation. Both are
// per-page-visited / per-cell-applied and are small next to IO, as the
// paper's Appendix B assumes.
type CPUCosts struct {
	PerPageVisit sim.Duration
	PerApply     sim.Duration
}

// DefaultCPUCosts matches the experiment defaults.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{PerPageVisit: 2 * sim.Microsecond, PerApply: 3 * sim.Microsecond}
}

// Tree is a B+tree over a buffer pool.
type Tree struct {
	pool  *buffer.Pool
	meta  Meta
	clock *sim.Clock
	costs CPUCosts

	// smo logs structure modifications; nil during unlogged bulk load.
	smo SMOLogger

	// onDirty is invoked for every page the tree dirties (data apply or
	// SMO), after pool.MarkDirty; the DC wires the ∆-tracker here.
	onDirty func(pid storage.PageID, lsn wal.LSN)
}

// Create initialises a new empty tree whose root leaf is allocated at
// meta.NextPID.
func Create(pool *buffer.Pool, clock *sim.Clock, tableID wal.TableID, firstPID storage.PageID, costs CPUCosts) (*Tree, error) {
	t := &Tree{
		pool:  pool,
		clock: clock,
		costs: costs,
		meta: Meta{
			TableID: tableID,
			Root:    firstPID,
			Height:  1,
			NextPID: firstPID + 1,
		},
	}
	f, err := pool.NewPage(firstPID, page.TypeLeaf)
	if err != nil {
		return nil, err
	}
	// Mark the empty root dirty so it reaches stable storage even if
	// the table is never written.
	pool.MarkDirty(f, wal.NilLSN)
	pool.Unpin(f)
	return t, nil
}

// Open attaches to an existing tree described by meta (read from the
// metadata page during DC recovery or restart).
func Open(pool *buffer.Pool, clock *sim.Clock, meta Meta, costs CPUCosts) *Tree {
	return &Tree{pool: pool, clock: clock, costs: costs, meta: meta}
}

// Meta returns the current tree metadata.
func (t *Tree) Meta() Meta { return t.meta }

// SetMeta replaces the tree metadata (DC SMO redo installs the
// metadata carried by each SMO record).
func (t *Tree) SetMeta(m Meta) { t.meta = m }

// SetSMOLogger installs the SMO logger (nil disables logging, used only
// for the initial unlogged bulk load).
func (t *Tree) SetSMOLogger(l SMOLogger) { t.smo = l }

// SetDirtyHook installs the per-page dirty callback.
func (t *Tree) SetDirtyHook(fn func(pid storage.PageID, lsn wal.LSN)) { t.onDirty = fn }

// Pool returns the tree's buffer pool.
func (t *Tree) Pool() *buffer.Pool { return t.pool }

func (t *Tree) visit() {
	if t.clock != nil {
		t.clock.Advance(t.costs.PerPageVisit)
	}
}

func (t *Tree) applyCost() {
	if t.clock != nil {
		t.clock.Advance(t.costs.PerApply)
	}
}

// childPID decodes the child pointer stored in an internal cell.
func childPID(val []byte) storage.PageID {
	return storage.PageID(binary.BigEndian.Uint32(val))
}

// AppendChildren appends the children of internal page p to dst in key
// order — the leftmost child, kept in the page's Extra field, then the
// child of each separator — and returns the extended slice.
func AppendChildren(dst []storage.PageID, p *page.Page) []storage.PageID {
	dst = append(dst, storage.PageID(p.Extra()))
	for i := 0; i < p.NumSlots(); i++ {
		dst = append(dst, childPID(p.ValueAt(i)))
	}
	return dst
}

func encodePID(pid storage.PageID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(pid))
	return b[:]
}

// route returns the child an internal page directs key to: the child of
// the rightmost separator ≤ key, or the leftmost child if key precedes
// every separator.
func route(p *page.Page, key uint64) storage.PageID {
	idx, found := p.Search(key)
	if found {
		return childPID(p.ValueAt(idx))
	}
	if idx == 0 {
		return storage.PageID(p.Extra())
	}
	return childPID(p.ValueAt(idx - 1))
}

// FindLeaf traverses internal pages only and returns the PID of the
// leaf that owns key. The leaf itself is NOT fetched — this is the
// B-tree search of the logical redo algorithms (Algorithm 2 line 8,
// Algorithm 5 line 4), which must learn the PID before deciding whether
// to fetch the page.
func (t *Tree) FindLeaf(key uint64) (storage.PageID, error) {
	pid := t.meta.Root
	for level := t.meta.Height; level > 1; level-- {
		f, err := t.pool.Get(pid)
		if err != nil {
			return storage.InvalidPageID, fmt.Errorf("btree: fetching internal page %d: %w", pid, err)
		}
		t.visit()
		if got := f.Page.Type(); got != page.TypeInternal {
			t.pool.Unpin(f)
			return storage.InvalidPageID, fmt.Errorf("btree: page %d has type %v, want internal", pid, got)
		}
		next := route(&f.Page, key)
		t.pool.Unpin(f)
		pid = next
	}
	return pid, nil
}

// Search returns a copy of the value stored under key.
func (t *Tree) Search(key uint64) ([]byte, bool, error) {
	pid, err := t.FindLeaf(key)
	if err != nil {
		return nil, false, err
	}
	f, err := t.pool.Get(pid)
	if err != nil {
		return nil, false, err
	}
	defer t.pool.Unpin(f)
	t.visit()
	idx, found := f.Page.Search(key)
	if !found {
		return nil, false, nil
	}
	out := make([]byte, len(f.Page.ValueAt(idx)))
	copy(out, f.Page.ValueAt(idx))
	return out, true, nil
}

// pathEntry records one internal page on the root-to-leaf path.
type pathEntry struct {
	pid storage.PageID
}

// findLeafPath is FindLeaf but also returns the internal-page path from
// root (inclusive) to the leaf's parent, for split propagation.
func (t *Tree) findLeafPath(key uint64) (storage.PageID, []pathEntry, error) {
	var path []pathEntry
	pid := t.meta.Root
	for level := t.meta.Height; level > 1; level-- {
		f, err := t.pool.Get(pid)
		if err != nil {
			return storage.InvalidPageID, nil, err
		}
		t.visit()
		path = append(path, pathEntry{pid: pid})
		next := route(&f.Page, key)
		t.pool.Unpin(f)
		pid = next
	}
	return pid, path, nil
}

// LogFunc appends the operation's log record once the owning leaf is
// known (after any splits) and returns the record's LSN, which becomes
// the page's pLSN. Normal operation appends a real update record here;
// redo passes a function returning the replayed record's LSN.
type LogFunc func(pid storage.PageID) wal.LSN

// Insert adds (key, val) at lsn. The leaf's pLSN becomes lsn and the
// leaf is marked dirty. Splits triggered by the insert are logged as
// SMO records before the insert itself is applied.
func (t *Tree) Insert(key uint64, val []byte, lsn wal.LSN) error {
	return t.InsertLogged(key, val, func(storage.PageID) wal.LSN { return lsn })
}

// InsertLogged adds (key, val), calling logFn with the owning leaf's
// PID to obtain the operation's LSN.
func (t *Tree) InsertLogged(key uint64, val []byte, logFn LogFunc) error {
	return t.modify(key, logFn, func(p *page.Page) error {
		return p.Insert(key, val)
	})
}

// PatchLogged rewrites the value under key with patch applied to it
// (page.Page.Patch) in one descent, calling logFn with the owning leaf's
// PID to obtain the operation's LSN. patch must be pure: a row that
// outgrows its leaf is patched again on its new leaf after the split. An
// error from patch is returned as is, and nothing is then logged,
// stamped or dirtied.
func (t *Tree) PatchLogged(key uint64, patch func(cur []byte) ([]byte, error), logFn LogFunc) error {
	return t.modify(key, logFn, func(p *page.Page) error {
		return p.Patch(key, patch)
	})
}

// Delete removes key at lsn. Leaves are never merged; like many
// production engines, space from deletes is reused by later inserts.
func (t *Tree) Delete(key uint64, lsn wal.LSN) error {
	return t.DeleteLogged(key, func(storage.PageID, []byte) wal.LSN { return lsn })
}

// DeleteLogged removes key in one descent, calling logFn with the owning
// leaf's PID and the row it removed to obtain the operation's LSN. old
// aliases page memory and is valid only during the call.
func (t *Tree) DeleteLogged(key uint64, logFn func(pid storage.PageID, old []byte) wal.LSN) error {
	var old []byte
	return t.modify(key, func(pid storage.PageID) wal.LSN { return logFn(pid, old) }, func(p *page.Page) error {
		if idx, found := p.Search(key); found {
			old = p.ValueAt(idx)
		}
		return p.Delete(key)
	})
}

// modify runs op against the owning leaf, splitting first if the leaf
// is full. op must be retryable after a split (it is re-run against the
// new owning leaf). On success, logFn supplies the operation's LSN; the
// page is stamped and marked dirty under it. The apply and the stamp
// are a single uninterruptible step in virtual time (no flush can
// intervene), so WAL ordering is preserved.
func (t *Tree) modify(key uint64, logFn LogFunc, op func(*page.Page) error) error {
	for attempt := 0; ; attempt++ {
		leafPID, path, err := t.findLeafPath(key)
		if err != nil {
			return err
		}
		f, err := t.pool.Get(leafPID)
		if err != nil {
			return err
		}
		t.visit()
		err = op(&f.Page)
		switch {
		case err == nil:
			t.applyCost()
			lsn := logFn(leafPID)
			f.Page.SetLSN(uint64(lsn))
			t.pool.MarkDirty(f, lsn)
			if t.onDirty != nil {
				t.onDirty(leafPID, lsn)
			}
			t.pool.Unpin(f)
			return nil
		case errors.Is(err, page.ErrPageFull):
			t.pool.Unpin(f)
			if attempt >= 8 {
				return fmt.Errorf("%w: key %d still does not fit after %d splits",
					ErrValueTooLarge, key, attempt)
			}
			if serr := t.splitLeaf(leafPID, path, key); serr != nil {
				return serr
			}
			continue
		default:
			t.pool.Unpin(f)
			return mapPageErr(err)
		}
	}
}

func mapPageErr(err error) error {
	switch {
	case errors.Is(err, page.ErrKeyExists):
		return fmt.Errorf("%w: %v", ErrKeyExists, err)
	case errors.Is(err, page.ErrNotFound):
		return fmt.Errorf("%w: %v", ErrKeyNotFound, err)
	default:
		return err
	}
}
