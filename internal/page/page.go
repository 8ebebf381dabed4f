// Package page implements the slotted page format shared by B-tree leaf
// and internal pages and the database metadata page.
//
// Layout (all integers big-endian):
//
//	offset  size  field
//	0       8     pLSN — LSN of the last operation applied to the page
//	8       1     page type (leaf / internal / meta)
//	9       1     flags (unused)
//	10      2     nslots
//	12      2     heapOff — offset of the lowest heap byte in use
//	14      2     freeBytes — reclaimable fragmented bytes in the heap
//	16      4     extra — leaf: right-sibling PID; internal: leftmost child PID
//	20      4     reserved
//	24      4*n   slot array: per slot {cellOff u16, cellLen u16}
//	...           free space
//	heapOff ...   heap cells, each [key u64][value bytes], growing downward
//
// Slots are kept sorted by key, so lookups are binary searches and
// in-order iteration is a slot-array walk. The page never moves cells on
// delete; it tracks reclaimable bytes and compacts lazily when an insert
// needs contiguous space that exists only fragmented.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Type discriminates page roles.
type Type uint8

// Page types.
const (
	TypeInvalid  Type = 0
	TypeLeaf     Type = 1
	TypeInternal Type = 2
	TypeMeta     Type = 3
)

func (t Type) String() string {
	switch t {
	case TypeLeaf:
		return "leaf"
	case TypeInternal:
		return "internal"
	case TypeMeta:
		return "meta"
	default:
		return fmt.Sprintf("page-type(%d)", uint8(t))
	}
}

const (
	headerSize = 24
	slotSize   = 4
	cellKeyLen = 8
)

// Errors returned by page operations.
var (
	// ErrPageFull indicates the page lacks space for the cell even
	// after compaction.
	ErrPageFull = errors.New("page: full")
	// ErrKeyExists indicates an insert of a key already present.
	ErrKeyExists = errors.New("page: key exists")
	// ErrNotAscending indicates an Append of a key that does not exceed
	// the page's last key.
	ErrNotAscending = errors.New("page: appended key does not ascend")
	// ErrNotFound indicates the key is not on the page.
	ErrNotFound = errors.New("page: key not found")
	// ErrCorrupt indicates the page failed a structural check.
	ErrCorrupt = errors.New("page: corrupt")
)

// Page is a view over a fixed-size byte slice. The page's bytes change
// only through its methods. A page may be shared: its bytes are an
// image someone else also holds (the simulated device keeps the image
// it was read from or flushed to), so the first mutation copies them
// and the other holder never sees the change (copy-on-write).
type Page struct {
	data   []byte
	shared bool
}

// New returns an empty page of type t over size fresh bytes. They are
// zero already, so it writes only the header. New is small enough to
// inline, so a caller that copies the view into a struct of its own
// (*page.New(...)) allocates only the bytes.
func New(size int, t Type) *Page {
	p := &Page{data: make([]byte, size)}
	p.format(t)
	return p
}

// format writes the header of an empty page of type t into p's bytes,
// which must be all zero.
func (p *Page) format(t Type) {
	p.data[8] = byte(t)
	p.setNSlots(0)
	p.setHeapOff(uint16(len(p.data)))
	p.setFreeBytes(0)
}

// WrapShared views bytes the caller does not own as a page, without
// validation (Check validates): the page's first mutation copies data,
// which is never written.
func WrapShared(data []byte) *Page { return &Page{data: data, shared: true} }

// MarkShared records that the page's current bytes are now held
// elsewhere too (a flush handed them to the device), so the next
// mutation copies them first.
func (p *Page) MarkShared() { p.shared = true }

// own makes p's bytes its own before a mutation: a shared image is
// copied once, and the copy is written from then on.
func (p *Page) own() {
	if p.shared {
		p.data = append([]byte(nil), p.data...)
		p.shared = false
	}
}

// Bytes returns the underlying storage of the page. It is read-only:
// it may be shared with the device, and the page changes only through
// its methods.
func (p *Page) Bytes() []byte { return p.data }

// CopyFrom overwrites the page with img (an SMO's after-image), copying
// a shared image first as any mutator does.
func (p *Page) CopyFrom(img []byte) {
	p.own()
	copy(p.data, img)
}

// Size returns the page size in bytes.
func (p *Page) Size() int { return len(p.data) }

// LSN returns the page LSN (pLSN) — the LSN of the latest operation
// that updated the page (§2.2).
func (p *Page) LSN() uint64 { return binary.BigEndian.Uint64(p.data[0:]) }

// SetLSN records the LSN of an operation just applied.
func (p *Page) SetLSN(lsn uint64) {
	p.own()
	binary.BigEndian.PutUint64(p.data[0:], lsn)
}

// Type returns the page type tag.
func (p *Page) Type() Type { return Type(p.data[8]) }

// NumSlots returns the number of cells on the page.
func (p *Page) NumSlots() int { return int(binary.BigEndian.Uint16(p.data[10:])) }

func (p *Page) setNSlots(n uint16) { binary.BigEndian.PutUint16(p.data[10:], n) }

func (p *Page) heapOff() uint16     { return binary.BigEndian.Uint16(p.data[12:]) }
func (p *Page) setHeapOff(v uint16) { binary.BigEndian.PutUint16(p.data[12:], v) }

func (p *Page) freeBytes() uint16     { return binary.BigEndian.Uint16(p.data[14:]) }
func (p *Page) setFreeBytes(v uint16) { binary.BigEndian.PutUint16(p.data[14:], v) }

// Extra returns the role-specific header word: the right-sibling PID for
// leaves, the leftmost-child PID for internal pages.
func (p *Page) Extra() uint32 { return binary.BigEndian.Uint32(p.data[16:]) }

// SetExtra stores the role-specific header word.
func (p *Page) SetExtra(v uint32) {
	p.own()
	binary.BigEndian.PutUint32(p.data[16:], v)
}

func (p *Page) slot(i int) (off, length int) {
	base := headerSize + i*slotSize
	return int(binary.BigEndian.Uint16(p.data[base:])),
		int(binary.BigEndian.Uint16(p.data[base+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	base := headerSize + i*slotSize
	binary.BigEndian.PutUint16(p.data[base:], uint16(off))
	binary.BigEndian.PutUint16(p.data[base+2:], uint16(length))
}

// KeyAt returns the key of slot i. It panics on out-of-range i, which is
// always a caller bug.
func (p *Page) KeyAt(i int) uint64 {
	off, _ := p.slot(i)
	return binary.BigEndian.Uint64(p.data[off:])
}

// ValueAt returns the value bytes of slot i. The returned slice aliases
// page memory: it is read-only, and callers must copy before retaining.
func (p *Page) ValueAt(i int) []byte {
	off, length := p.slot(i)
	return p.data[off+cellKeyLen : off+length]
}

// Search locates key: it returns the slot index where key is or would
// be inserted, and whether it was found.
func (p *Page) Search(key uint64) (int, bool) {
	n := p.NumSlots()
	i := sort.Search(n, func(j int) bool { return p.KeyAt(j) >= key })
	return i, i < n && p.KeyAt(i) == key
}

// contiguousFree is the gap between the slot array end and heap start.
func (p *Page) contiguousFree() int {
	return int(p.heapOff()) - (headerSize + p.NumSlots()*slotSize)
}

// FreeSpace returns the bytes available for one new cell of any size,
// counting fragmented heap bytes (reachable via compaction) but
// reserving the new cell's slot entry.
func (p *Page) FreeSpace() int {
	free := p.contiguousFree() + int(p.freeBytes()) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// CellSize returns the heap bytes a value of length n occupies.
func CellSize(n int) int { return cellKeyLen + n }

// Insert adds (key, val). It returns ErrKeyExists if key is present and
// ErrPageFull if the cell cannot fit even after compaction.
func (p *Page) Insert(key uint64, val []byte) error {
	p.own()
	idx, found := p.Search(key)
	if found {
		return fmt.Errorf("%w: %d", ErrKeyExists, key)
	}
	return p.insertAt(idx, key, val)
}

// Append adds (key, val) as the page's last cell: key must exceed every
// key already on the page (ErrNotAscending otherwise), so there is no
// search and no slot to shift — the sorted bulk build's insert. The
// page is left exactly as Insert would leave it; on any error it is
// untouched.
func (p *Page) Append(key uint64, val []byte) error {
	p.own()
	n := p.NumSlots()
	if n > 0 {
		if last := p.KeyAt(n - 1); key <= last {
			return fmt.Errorf("%w: %d after %d", ErrNotAscending, key, last)
		}
	}
	return p.insertAt(n, key, val)
}

// MaxValueLen is the longest value a cell on an otherwise empty page of
// pageSize bytes can hold.
func MaxValueLen(pageSize int) int {
	return pageSize - headerSize - slotSize - cellKeyLen
}

func (p *Page) insertAt(idx int, key uint64, val []byte) error {
	cell := CellSize(len(val))
	if cell+slotSize > p.contiguousFree() {
		if cell+slotSize > p.contiguousFree()+int(p.freeBytes()) {
			return fmt.Errorf("%w: need %d bytes, have %d", ErrPageFull,
				cell+slotSize, p.contiguousFree()+int(p.freeBytes()))
		}
		p.Compact()
	}
	// Carve the cell from the heap.
	newHeap := int(p.heapOff()) - cell
	off := newHeap
	binary.BigEndian.PutUint64(p.data[off:], key)
	copy(p.data[off+cellKeyLen:], val)
	p.setHeapOff(uint16(newHeap))
	// Shift slots [idx, n) right by one.
	n := p.NumSlots()
	base := headerSize + idx*slotSize
	end := headerSize + n*slotSize
	copy(p.data[base+slotSize:end+slotSize], p.data[base:end])
	p.setSlot(idx, off, cell)
	p.setNSlots(uint16(n + 1))
	return nil
}

// Patch rewrites key's row with patch (an update's or a CLR's After, or
// a function returning a whole new row) applied to the row the page
// holds. A row of the same length is overwritten in place; otherwise the
// cell is reallocated. cur aliases page memory: patch must neither write
// it nor return it. Patch returns ErrNotFound if key is absent and
// ErrPageFull if a longer row cannot fit; an error from patch is
// returned as is. On any error the page is left untouched.
func (p *Page) Patch(key uint64, patch func(cur []byte) ([]byte, error)) error {
	idx, found := p.Search(key)
	if !found {
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	row, err := patch(p.ValueAt(idx))
	if err != nil {
		return err
	}
	p.own()
	return p.updateAt(idx, key, row)
}

// updateAt replaces the value in slot idx, which holds key.
func (p *Page) updateAt(idx int, key uint64, val []byte) error {
	off, length := p.slot(idx)
	if CellSize(len(val)) == length {
		copy(p.data[off+cellKeyLen:off+length], val)
		return nil
	}
	// Reallocate: delete then insert at the same position. If the
	// re-insert fails, restore the old cell so the page is unchanged.
	old := make([]byte, length-cellKeyLen)
	copy(old, p.data[off+cellKeyLen:off+length])
	p.deleteAt(idx)
	if err := p.insertAt(idx, key, val); err != nil {
		if rerr := p.insertAt(idx, key, old); rerr != nil {
			// Space for the original cell was just released, so
			// reinsertion cannot fail; treat failure as corruption.
			panic(fmt.Sprintf("page: lost cell during failed update: %v", rerr))
		}
		return err
	}
	return nil
}

// Delete removes key. It returns ErrNotFound if absent.
func (p *Page) Delete(key uint64) error {
	p.own()
	idx, found := p.Search(key)
	if !found {
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	p.deleteAt(idx)
	return nil
}

func (p *Page) deleteAt(idx int) {
	n := p.NumSlots()
	off, length := p.slot(idx)
	if off == int(p.heapOff()) {
		// Cell sits at the heap frontier: release it directly.
		p.setHeapOff(uint16(off + length))
	} else {
		p.setFreeBytes(p.freeBytes() + uint16(length))
	}
	base := headerSize + idx*slotSize
	end := headerSize + n*slotSize
	copy(p.data[base:], p.data[base+slotSize:end])
	p.setNSlots(uint16(n - 1))
}

// Compact rewrites the heap to be contiguous, reclaiming fragmented
// bytes. Slot order and page contents are unchanged.
func (p *Page) Compact() {
	p.own()
	n := p.NumSlots()
	type cell struct {
		idx, off, length int
	}
	cells := make([]cell, 0, n)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		cells = append(cells, cell{i, off, length})
	}
	// Rewrite cells from the page end downward in descending offset
	// order so moves never overwrite unread data (cells only move up).
	sort.Slice(cells, func(i, j int) bool { return cells[i].off > cells[j].off })
	heap := len(p.data)
	for _, c := range cells {
		heap -= c.length
		copy(p.data[heap:heap+c.length], p.data[c.off:c.off+c.length])
		p.setSlot(c.idx, heap, c.length)
	}
	p.setHeapOff(uint16(heap))
	p.setFreeBytes(0)
}

// SplitInto moves the upper half of p's cells into dst (an empty,
// formatted page of the same type) and returns the first key of dst —
// the separator to install in the parent. The paper's SMO logging wraps
// this operation (§4).
func (p *Page) SplitInto(dst *Page) (uint64, error) {
	p.own()
	n := p.NumSlots()
	if n < 2 {
		return 0, fmt.Errorf("%w: split of page with %d cells", ErrCorrupt, n)
	}
	mid := n / 2
	sep := p.KeyAt(mid)
	for i := mid; i < n; i++ {
		if err := dst.Insert(p.KeyAt(i), p.ValueAt(i)); err != nil {
			return 0, fmt.Errorf("split move: %w", err)
		}
	}
	// Remove moved cells from p, highest first so indices stay valid.
	for i := n - 1; i >= mid; i-- {
		p.deleteAt(i)
	}
	p.Compact()
	return sep, nil
}

// Check validates structural invariants: sorted unique keys, disjoint
// cells within the heap, and a consistent free-byte account. It returns
// nil for a healthy page and never panics on a corrupt one.
func (p *Page) Check() error {
	if len(p.data) < headerSize {
		return fmt.Errorf("%w: page smaller than header", ErrCorrupt)
	}
	n := p.NumSlots()
	if headerSize+n*slotSize > int(p.heapOff()) {
		return fmt.Errorf("%w: slot array overlaps heap", ErrCorrupt)
	}
	if int(p.heapOff()) > len(p.data) {
		return fmt.Errorf("%w: heap starts at %d, past the page end %d", ErrCorrupt, p.heapOff(), len(p.data))
	}
	used := 0
	var prev uint64
	cells := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off < int(p.heapOff()) || off+length > len(p.data) || length < cellKeyLen {
			return fmt.Errorf("%w: slot %d cell out of bounds", ErrCorrupt, i)
		}
		used += length
		cells = append(cells, [2]int{off, length})
		k := p.KeyAt(i)
		if i > 0 && k <= prev {
			return fmt.Errorf("%w: keys out of order at slot %d (%d after %d)", ErrCorrupt, i, k, prev)
		}
		prev = k
	}
	// Overlapping cells would let one cell's write change another's key
	// or value, and Compact would then corrupt both.
	sort.Slice(cells, func(i, j int) bool { return cells[i][0] < cells[j][0] })
	for i := 1; i < len(cells); i++ {
		if cells[i][0] < cells[i-1][0]+cells[i-1][1] {
			return fmt.Errorf("%w: cells at %d and %d overlap", ErrCorrupt, cells[i-1][0], cells[i][0])
		}
	}
	heapBytes := len(p.data) - int(p.heapOff())
	if used+int(p.freeBytes()) != heapBytes {
		return fmt.Errorf("%w: heap accounting: used %d + free %d != heap %d",
			ErrCorrupt, used, p.freeBytes(), heapBytes)
	}
	return nil
}
