package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"logrec/internal/storage"
)

// Encoding helpers. Behind the fixed-width frame header (log.go) the
// records written per operation — update, insert, delete, CLR, commit,
// abort — use unsigned varints for every integer and length: their
// values are small and their count is what log volume is proportional
// to. The system records — checkpoint, ∆, BW, SMO, RSSP, shard-map —
// keep big-endian fixed-width integers and uint32 counts. The decoder
// rejects an over-long varint, so a record has one byte string.

func putU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func putU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func putU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func putUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func putBytes(dst []byte, b []byte) []byte {
	dst = putU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// putVarBytes is putBytes with a varint length.
func putVarBytes(dst []byte, b []byte) []byte {
	dst = putUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func putPIDs(dst []byte, pids []storage.PageID) []byte {
	dst = putU32(dst, uint32(len(pids)))
	for _, p := range pids {
		dst = putU32(dst, uint32(p))
	}
	return dst
}

func putLSNs(dst []byte, lsns []LSN) []byte {
	dst = putU32(dst, uint32(len(lsns)))
	for _, l := range lsns {
		dst = putU64(dst, uint64(l))
	}
	return dst
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

// decoder walks a record body. Methods record the first error and
// subsequently return zero values, so call sites stay linear and the
// final Err check suffices.
type decoder struct {
	src []byte
	off int
	err error
}

func newDecoder(src []byte) *decoder { return &decoder{src: src} }

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short buffer reading %s at offset %d", ErrBadRecord, what, d.off)
	}
}

func (d *decoder) u8(what string) uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.src) {
		d.fail(what)
		return 0
	}
	v := d.src[d.off]
	d.off++
	return v
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.src) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.src[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.src) {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.src[d.off:])
	d.off += 8
	return v
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

// uvarint32 reads a varint that must fit 32 bits.
func (d *decoder) uvarint32(what string) uint32 {
	v := d.uvarint(what)
	if v > math.MaxUint32 && d.err == nil {
		d.err = fmt.Errorf("%w: %s %d exceeds 32 bits", ErrBadRecord, what, v)
		return 0
	}
	return uint32(v)
}

func (d *decoder) bytes(what string) []byte {
	return d.take(what, uint64(d.u32(what)))
}

// varBytes is bytes with a varint length.
func (d *decoder) varBytes(what string) []byte {
	return d.take(what, d.uvarint(what))
}

// take copies the next n body bytes out.
func (d *decoder) take(what string, n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.src)-d.off) {
		d.fail(what)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.src[d.off:])
	d.off += int(n)
	return out
}

func (d *decoder) pids(what string) []storage.PageID {
	n := int(d.u32(what))
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+4*n > len(d.src) {
		d.fail(what)
		return nil
	}
	out := make([]storage.PageID, n)
	for i := range out {
		out[i] = storage.PageID(binary.BigEndian.Uint32(d.src[d.off:]))
		d.off += 4
	}
	return out
}

func (d *decoder) lsns(what string) []LSN {
	n := int(d.u32(what))
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+8*n > len(d.src) {
		d.fail(what)
		return nil
	}
	out := make([]LSN, n)
	for i := range out {
		out[i] = LSN(binary.BigEndian.Uint64(d.src[d.off:]))
		d.off += 8
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
