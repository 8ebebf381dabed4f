package dc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"logrec/internal/btree"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// The metadata page (storage.MetaPageID) is the DC's boot page: it
// persists the B-tree metadata (root, height, allocator cursor) and the
// last redo-scan-start-point LSN as of the most recent checkpoint. SMO
// records replayed by DC recovery advance the tree metadata past the
// checkpoint image.
//
// Layout: [8B magic][4B tableID][4B root][4B height][4B nextPID]
//         [8B rsspLSN], zero-padded to the page size.

var metaMagic = [8]byte{'L', 'R', 'D', 'C', 'M', 'E', 'T', 'A'}

// ErrBadMeta indicates an unreadable metadata page.
var ErrBadMeta = errors.New("dc: bad metadata page")

const metaEncodedLen = 8 + 4 + 4 + 4 + 4 + 8

// metaState is what the boot page carries.
type metaState struct {
	tree    btree.Meta
	rsspLSN wal.LSN
}

func encodeMeta(st metaState, pageSize int) []byte {
	buf := make([]byte, pageSize)
	copy(buf, metaMagic[:])
	binary.BigEndian.PutUint32(buf[8:], uint32(st.tree.TableID))
	binary.BigEndian.PutUint32(buf[12:], uint32(st.tree.Root))
	binary.BigEndian.PutUint32(buf[16:], st.tree.Height)
	binary.BigEndian.PutUint32(buf[20:], uint32(st.tree.NextPID))
	binary.BigEndian.PutUint64(buf[24:], uint64(st.rsspLSN))
	return buf
}

// decodeMeta reads a boot page, refusing one that describes no tree:
// height 0, the invalid page as root, or an allocator cursor at or below
// the root it has already handed out. The padding must be zero, so a
// page that decodes is the page encodeMeta writes for what it holds.
func decodeMeta(buf []byte) (metaState, error) {
	var st metaState
	if len(buf) < metaEncodedLen {
		return st, fmt.Errorf("%w: %d bytes", ErrBadMeta, len(buf))
	}
	if !bytes.Equal(buf[:len(metaMagic)], metaMagic[:]) {
		return st, fmt.Errorf("%w: magic mismatch", ErrBadMeta)
	}
	st.tree.TableID = wal.TableID(binary.BigEndian.Uint32(buf[8:]))
	st.tree.Root = storage.PageID(binary.BigEndian.Uint32(buf[12:]))
	st.tree.Height = binary.BigEndian.Uint32(buf[16:])
	st.tree.NextPID = storage.PageID(binary.BigEndian.Uint32(buf[20:]))
	st.rsspLSN = wal.LSN(binary.BigEndian.Uint64(buf[24:]))
	switch {
	case st.tree.Height == 0:
		return st, fmt.Errorf("%w: tree height 0", ErrBadMeta)
	case st.tree.Root == storage.InvalidPageID:
		return st, fmt.Errorf("%w: root is the invalid page", ErrBadMeta)
	case st.tree.NextPID <= st.tree.Root:
		return st, fmt.Errorf("%w: next page %d not past root %d", ErrBadMeta, st.tree.NextPID, st.tree.Root)
	}
	if i := slices.IndexFunc(buf[metaEncodedLen:], func(b byte) bool { return b != 0 }); i >= 0 {
		return st, fmt.Errorf("%w: padding byte %d is not zero", ErrBadMeta, metaEncodedLen+i)
	}
	return st, nil
}
