package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"logrec/internal/storage"
)

// Encoding helpers. Every integer and every length in the log — frame
// header, per-operation records and system records alike — is an
// unsigned varint, and the decoder refuses one that is over-long or too
// wide for its field, so a record has one byte string. A back-pointer
// (PrevLSN, UndoNextLSN, a ∆ record's DirtyLSNs) is written as its
// distance below the record that carries it.

func putUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// putVarBytes appends b behind its length.
func putVarBytes(dst []byte, b []byte) []byte {
	dst = putUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// putVarPIDs appends pids, in order, behind their count.
func putVarPIDs(dst []byte, pids []storage.PageID) []byte {
	dst = putUvarint(dst, uint64(len(pids)))
	for _, p := range pids {
		dst = putUvarint(dst, uint64(p))
	}
	return dst
}

// putBack appends the back-pointer p of the record at LSN at: how far
// below at it points, 0 for NilLSN. A pointer that is neither nil nor
// an LSN in [FirstLSN, at) has no encoding and is refused.
func putBack(dst []byte, what string, p, at LSN) ([]byte, error) {
	if p == NilLSN {
		return append(dst, 0), nil
	}
	if p < FirstLSN() || p >= at {
		return dst, fmt.Errorf("%w: %s %v of the record at %v does not point back into the log", ErrBadRecord, what, p, at)
	}
	return putUvarint(dst, uint64(at-p)), nil
}

// checkPIDs refuses a ∆ or BW page list naming storage.InvalidPageID.
func checkPIDs(what string, pids []storage.PageID) error {
	if slices.Contains(pids, storage.InvalidPageID) {
		return fmt.Errorf("%w: %s names page %d", ErrBadRecord, what, storage.InvalidPageID)
	}
	return nil
}

// Splice rebuilds a row from a patch — cur's first skip and last tail
// bytes with mid between them — and is the only way a logged middle
// becomes a row again. A patch that keeps more bytes than the row it
// meets has is ErrBadRecord: they are not the pair that was logged.
func Splice(cur []byte, skip, tail uint32, mid []byte) ([]byte, error) {
	if uint64(skip)+uint64(tail) > uint64(len(cur)) {
		return nil, fmt.Errorf("%w: patch keeps %d+%d bytes of a %d-byte row", ErrBadRecord, skip, tail, len(cur))
	}
	return slices.Concat(cur[:skip], mid, cur[len(cur)-int(tail):]), nil
}

// commonEnds returns the lengths of the longest common prefix of a and
// b and of the longest common suffix of what follows it.
func commonEnds(a, b []byte) (prefix, suffix int) {
	n := min(len(a), len(b))
	for prefix < n && a[prefix] == b[prefix] {
		prefix++
	}
	a, b, n = a[prefix:], b[prefix:], n-prefix
	for suffix < n && a[len(a)-1-suffix] == b[len(b)-1-suffix] {
		suffix++
	}
	return prefix, suffix
}

// decoder walks the body of the record at LSN at. Methods record the
// first error and subsequently return zero values, so call sites stay
// linear and the final Err check suffices.
type decoder struct {
	src []byte
	off int
	at  LSN
	err error
}

func newDecoder(src []byte, at LSN) *decoder { return &decoder{src: src, at: at} }

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short buffer reading %s at offset %d", ErrBadRecord, what, d.off)
	}
}

// uvarint reads one minimally encoded unsigned varint.
func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.src[d.off:])
	if n <= 0 || (n > 1 && d.src[d.off+n-1] == 0) {
		d.err = fmt.Errorf("%w: cut-off, over-wide or over-long varint reading %s at offset %d", ErrBadRecord, what, d.off)
		return 0
	}
	d.off += n
	return v
}

// refuse records a value the field it was read for cannot hold.
func (d *decoder) refuse(what string, v uint64, why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s %d of the record at %v %s", ErrBadRecord, what, v, d.at, why)
	}
}

// uvarint32 reads a varint that must fit 32 bits.
func (d *decoder) uvarint32(what string) uint32 {
	v := d.uvarint(what)
	if v > math.MaxUint32 {
		d.refuse(what, v, "exceeds 32 bits")
		return 0
	}
	return uint32(v)
}

// back reads a back-pointer (putBack): a distance that reaches below
// FirstLSN points at nothing.
func (d *decoder) back(what string) LSN {
	dist := d.uvarint(what)
	if dist > uint64(d.at-FirstLSN()) {
		d.refuse(what, dist, "bytes back points below the log")
		return NilLSN
	}
	if dist == 0 {
		return NilLSN
	}
	return d.at - LSN(dist)
}

// count reads the length of a list whose entries take at least min
// encoded bytes each, refusing one the rest of the body cannot hold
// before anything is allocated for it.
func (d *decoder) count(what string, min int) int {
	n, rest := d.uvarint(what), uint64(len(d.src)-d.off)
	if d.err == nil && (n > rest || n*uint64(min) > rest) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// varBytes copies out the length-prefixed bytes that follow.
func (d *decoder) varBytes(what string) []byte {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.src)-d.off) {
		d.fail(what)
	}
	if d.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.src[d.off:])
	d.off += int(n)
	return out
}

// varPIDs reads a page list (putVarPIDs). The lists are most of what a
// ∆ or BW record holds, so the loop reads the two- and three-byte page
// numbers — pages 128 to two million — itself and leaves the rest, and
// whatever is malformed, to uvarint32.
func (d *decoder) varPIDs(what string) []storage.PageID {
	out := make([]storage.PageID, d.count(what, 1))
	for i := 0; i < len(out) && d.err == nil; i++ {
		b := d.src[d.off:]
		switch {
		case len(b) > 1 && b[0] >= 0x80 && b[1] < 0x80 && b[1] != 0:
			out[i], d.off = storage.PageID(b[0]&0x7f)|storage.PageID(b[1])<<7, d.off+2
		case len(b) > 2 && b[0] >= 0x80 && b[1] >= 0x80 && b[2] < 0x80 && b[2] != 0:
			out[i], d.off = storage.PageID(b[0]&0x7f)|storage.PageID(b[1]&0x7f)<<7|storage.PageID(b[2])<<14, d.off+3
		default:
			out[i] = storage.PageID(d.uvarint32(what))
		}
	}
	return out
}

// finish verifies the whole body was consumed.
func (d *decoder) finish(t Type) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.src) {
		return fmt.Errorf("%w: %d trailing bytes in %s record", ErrBadRecord, len(d.src)-d.off, t)
	}
	return nil
}
