package storage

import "math/bits"

// Table maps page IDs to values without a hash map. Page IDs are dense
// (a tree allocates them by counting up), so the table is a radix tree
// over the ID's bits: a directory of directory blocks, each pointing at
// fixed chunks of chunkLen slots, every block and chunk allocated on
// first use. A chunk whose last ID is deleted is unlinked and kept as
// the table's one spare, which the next new chunk reuses: a cache
// whose residents leave a chunk and come back to it allocates nothing.
// A lookup is three indexed loads and allocates nothing; a table of n
// dense pages costs about n·sizeof(T) bytes plus one directory block.
// The directory is itself split in two so that one stray ID — a
// corrupt PID read from the log — costs at most one directory block
// and one chunk, never memory in proportion to its value, and once the
// ID is deleted its chunk becomes the spare.
//
// The zero Table is empty and ready to use. It is not safe for
// concurrent use; its owner's lock guards it.
type Table[T any] struct {
	dir   []*tableBlock[T]
	spare *tableChunk[T] // an emptied chunk, reused by the next Set that needs one
	n     int
}

const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
	blockBits = 10
	blockLen  = 1 << blockBits
)

// tableBlock is one directory block: blockLen chunks' worth of IDs.
type tableBlock[T any] [blockLen]*tableChunk[T]

// tableChunk holds chunkLen consecutive IDs' slots, a bitmap of which
// of them are set and how many are.
type tableChunk[T any] struct {
	used [chunkLen / 64]uint64
	n    int
	v    [chunkLen]T
}

// tableIndex splits pid into its directory block, the chunk within the
// block and the slot within the chunk.
func tableIndex(pid PageID) (blk, chk, slot uint32) {
	return uint32(pid) >> (chunkBits + blockBits), uint32(pid) >> chunkBits & (blockLen - 1), uint32(pid) & (chunkLen - 1)
}

// block returns pid's directory block, or nil if none was allocated,
// and pid's chunk and slot within it.
func (t *Table[T]) block(pid PageID) (b *tableBlock[T], chk, slot uint32) {
	blk, chk, slot := tableIndex(pid)
	if int(blk) < len(t.dir) {
		b = t.dir[blk]
	}
	return b, chk, slot
}

// Get returns pid's value and whether it is set.
func (t *Table[T]) Get(pid PageID) (T, bool) {
	if b, chk, slot := t.block(pid); b != nil {
		if c := b[chk]; c != nil && c.used[slot/64]&(1<<(slot%64)) != 0 {
			return c.v[slot], true
		}
	}
	var zero T
	return zero, false
}

// Set stores v as pid's value, allocating its chunk on first use.
func (t *Table[T]) Set(pid PageID, v T) {
	blk, chk, slot := tableIndex(pid)
	if int(blk) >= len(t.dir) {
		t.dir = append(t.dir, make([]*tableBlock[T], int(blk)+1-len(t.dir))...)
	}
	b := t.dir[blk]
	if b == nil {
		b = new(tableBlock[T])
		t.dir[blk] = b
	}
	c := b[chk]
	if c == nil {
		if c = t.spare; c != nil {
			t.spare = nil
		} else {
			c = new(tableChunk[T])
		}
		b[chk] = c
	}
	if bit := uint64(1) << (slot % 64); c.used[slot/64]&bit == 0 {
		c.used[slot/64] |= bit
		c.n++
		t.n++
	}
	c.v[slot] = v
}

// Delete unsets pid, dropping the table's reference to its value. If
// no other ID in pid's chunk is set, the chunk is unlinked: it becomes
// the spare, or is freed if there is one already. An unlinked chunk is
// empty — every slot zero, no bit set.
func (t *Table[T]) Delete(pid PageID) {
	b, chk, slot := t.block(pid)
	if b == nil || b[chk] == nil {
		return
	}
	c := b[chk]
	if bit := uint64(1) << (slot % 64); c.used[slot/64]&bit != 0 {
		c.used[slot/64] &^= bit
		var zero T
		c.v[slot] = zero
		t.n--
		if c.n--; c.n == 0 {
			b[chk] = nil
			if t.spare == nil {
				t.spare = c
			}
		}
	}
}

// Len returns how many IDs are set.
func (t *Table[T]) Len() int { return t.n }

// Range calls fn with every set ID and its value in ascending ID
// order, stopping early if fn returns false. The table must not change
// during the walk.
func (t *Table[T]) Range(fn func(PageID, T) bool) {
	for bi, b := range t.dir {
		if b == nil {
			continue
		}
		for ci, c := range b {
			if c == nil {
				continue
			}
			base := PageID(bi)<<(chunkBits+blockBits) | PageID(ci)<<chunkBits
			for w, word := range c.used {
				for ; word != 0; word &= word - 1 {
					slot := w*64 + bits.TrailingZeros64(word)
					if !fn(base|PageID(slot), c.v[slot]) {
						return
					}
				}
			}
		}
	}
}
