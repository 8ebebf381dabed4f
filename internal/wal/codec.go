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
// distance below the record that carries it, and so is a transaction's
// name, the LSN of its first record (txnDist). A record that carries a
// shard ends with its back-pointers and then the shard, less the run of
// zero fields that would end the body (putTrail).

func putUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// putVarBytes appends b behind its length.
func putVarBytes(dst []byte, b []byte) []byte {
	dst = putUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// putPatch appends a patch's two middles. Their length is logged once
// when they are equally long — the common case, fixed-width columns —
// as len(before)<<1 | differ, and the after-middle's own length follows
// the before-middle only when differ is 1.
func putPatch(dst, before, after []byte) []byte {
	if len(before) == len(after) {
		dst = putUvarint(dst, uint64(len(before))<<1)
		dst = append(dst, before...)
		return append(dst, after...)
	}
	dst = putUvarint(dst, uint64(len(before))<<1|1)
	dst = append(dst, before...)
	return putVarBytes(dst, after)
}

// putTrail appends a record's trailing fields — back-pointer distances,
// then the shard — less the run of zeros that ends them: the decoder
// reads a field past the body's end as 0 (decoder.trail).
func putTrail(dst []byte, fields ...uint64) []byte {
	n := len(fields)
	for n > 0 && fields[n-1] == 0 {
		n--
	}
	for _, v := range fields[:n] {
		dst = putUvarint(dst, v)
	}
	return dst
}

// putVarPIDs appends pids, in order, behind their count.
func putVarPIDs(dst []byte, pids []storage.PageID) []byte {
	return putPIDs(putUvarint(dst, uint64(len(pids))), pids)
}

// putPIDs appends pids, in order.
func putPIDs(dst []byte, pids []storage.PageID) []byte {
	for _, p := range pids {
		dst = putUvarint(dst, uint64(p))
	}
	return dst
}

// putBack appends the back-pointer p of the record at LSN at (backDist).
func putBack(dst []byte, what string, p, at LSN) ([]byte, error) {
	d, err := backDist(what, p, at)
	if err != nil {
		return dst, err
	}
	return putUvarint(dst, d), nil
}

// backDist is how far below at the back-pointer p of the record at LSN
// at points, 0 for NilLSN. A pointer that is neither nil nor an LSN in
// [FirstLSN, at) has no encoding and is refused.
func backDist(what string, p, at LSN) (uint64, error) {
	if p == NilLSN {
		return 0, nil
	}
	if p < FirstLSN() || p >= at {
		return 0, fmt.Errorf("%w: %s %v of the record at %v does not point back into the log", ErrBadRecord, what, p, at)
	}
	return uint64(at - p), nil
}

// txnDist is how far below the record at LSN at the first record of its
// transaction id lies: 0 for a record that opens its transaction
// (OpensTxn, or id == at once decoded), at itself for TxnID 0. A name
// above at is refused, and so is a record that opens its transaction yet
// points back to an earlier record prev.
func txnDist(id TxnID, prev, at LSN) (uint64, error) {
	if id == OpensTxn || id == TxnID(at) {
		if prev != NilLSN {
			return 0, errOpens(at, prev)
		}
		return 0, nil
	}
	if uint64(id) > uint64(at) {
		return 0, fmt.Errorf("%w: txn %d of the record at %v is not the LSN of a record below it", ErrBadRecord, id, at)
	}
	return uint64(at - LSN(id)), nil
}

// chainDists returns the distances that place the record at LSN at in
// its transaction's chain: its name (txnDist) and its PrevLSN (backDist).
func chainDists(id TxnID, prev, at LSN) (txn, back uint64, err error) {
	if back, err = backDist("prev", prev, at); err == nil {
		txn, err = txnDist(id, prev, at)
	}
	return txn, back, err
}

func errOpens(at, prev LSN) error {
	return fmt.Errorf("%w: the record at %v opens its transaction but points back to %v", ErrBadRecord, at, prev)
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
func (d *decoder) uvarint32(what string) uint32 { return d.fit32(what, d.uvarint(what)) }

// trail32 reads a trailing field that must fit 32 bits.
func (d *decoder) trail32(what string) uint32 { return d.fit32(what, d.trail(what)) }

// fit32 refuses a value read for a 32-bit field that does not fit it.
func (d *decoder) fit32(what string, v uint64) uint32 {
	if v > math.MaxUint32 {
		d.refuse(what, v, "exceeds 32 bits")
		return 0
	}
	return uint32(v)
}

// trail reads a trailing field (putTrail). One past the body's end is 0;
// one that is present, 0 and last in the body is refused, because the
// encoder would have left it out.
func (d *decoder) trail(what string) uint64 {
	if d.err != nil || d.off == len(d.src) {
		return 0
	}
	v := d.uvarint(what)
	if v == 0 && d.off == len(d.src) {
		d.refuse(what, v, "ends the body: a trailing zero field is not written")
	}
	return v
}

// back reads a back-pointer (putBack).
func (d *decoder) back(what string) LSN { return d.pointer(what, d.uvarint(what)) }

// trailBack reads a back-pointer among the trailing fields.
func (d *decoder) trailBack(what string) LSN { return d.pointer(what, d.trail(what)) }

// pointer turns a back-pointer's distance into the LSN it points at: a
// distance that reaches below FirstLSN points at nothing.
func (d *decoder) pointer(what string, dist uint64) LSN {
	if dist > uint64(d.at-FirstLSN()) {
		d.refuse(what, dist, "bytes back points below the log")
		return NilLSN
	}
	if dist == 0 {
		return NilLSN
	}
	return d.at - LSN(dist)
}

// txn reads a transaction's name (txnDist): a distance that reaches
// below LSN 0 names nothing.
func (d *decoder) txn() TxnID {
	dist := d.uvarint("txn")
	if dist > uint64(d.at) {
		d.refuse("txn", dist, "bytes back reaches below LSN 0")
		return 0
	}
	return TxnID(d.at - LSN(dist))
}

// chain refuses a record that opens its transaction — it is named by its
// own LSN — yet points back to an earlier record prev.
func (d *decoder) chain(txn TxnID, prev LSN) {
	if d.err == nil && txn == TxnID(d.at) && prev != NilLSN {
		d.err = errOpens(d.at, prev)
	}
}

// count reads the length of a list whose entries take at least min
// encoded bytes each, refusing one the rest of the body cannot hold
// before anything is allocated for it.
func (d *decoder) count(what string, min int) int { return d.room(what, d.uvarint(what), min) }

// room checks that n list entries of at least min bytes each fit the
// rest of the body.
func (d *decoder) room(what string, n uint64, min int) int {
	rest := uint64(len(d.src) - d.off)
	if d.err == nil && (n > rest || n*uint64(min) > rest) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// varBytes copies out the length-prefixed bytes that follow.
func (d *decoder) varBytes(what string) []byte { return d.bytes(what, d.uvarint(what)) }

// patch reads a patch's two middles (putPatch). A second length equal
// to the first is refused: that patch logs its length once.
func (d *decoder) patch() (before, after []byte) {
	h := d.uvarint("before")
	before = d.bytes("before", h>>1)
	if h&1 == 0 {
		return before, d.bytes("after", h>>1)
	}
	n := d.uvarint("after")
	if n == h>>1 {
		d.refuse("after length", n, "equals the before-middle's, which is then logged once")
	}
	return before, d.bytes("after", n)
}

// bytes copies out the n bytes that follow.
func (d *decoder) bytes(what string, n uint64) []byte {
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

// varPIDs reads a page list (putVarPIDs).
func (d *decoder) varPIDs(what string) []storage.PageID { return d.pids(what, d.uvarint(what)) }

// pids reads n page numbers (putPIDs). The lists are most of what a ∆
// or BW record holds, so the loop reads the two- and three-byte page
// numbers — pages 128 to two million — itself and leaves the rest, and
// whatever is malformed, to uvarint32.
func (d *decoder) pids(what string, n uint64) []storage.PageID {
	out := make([]storage.PageID, d.room(what, n, 1))
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
