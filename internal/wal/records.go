package wal

import (
	"bytes"
	"fmt"
	"math"

	"logrec/internal/storage"
)

// ---------------------------------------------------------------------
// Transactional data operations
// ---------------------------------------------------------------------

// UpdateRec logs an update of an existing row as a patch: the row's
// first Skip and last Tail bytes are unchanged, OldVal lay between them
// before the update and NewVal lies there after it. Redo applies After;
// undo logs and applies the patch turned round (Undo). The row is
// identified logically by its Key (the engine has one table, so no
// record names it); PageID is the physiological hint captured when the
// update ran.
//
// A producer hands over whole row images (Skip = Tail = 0); encodeBody
// trims the longest common prefix, then the longest common suffix, so
// the log carries — and a decoded record holds — only the middles.
//
// A patch whose middles are equally long is in place: it overwrites
// that many bytes at Skip, and the row's length gives the tail. Such a
// patch ignores Tail, the log leaves it out and a decoded record holds
// 0 there. A patch that changes the row's length logs its Tail.
type UpdateRec struct {
	TxnID   TxnID
	KeyVal  uint64
	Skip    uint32
	Tail    uint32
	OldVal  []byte
	NewVal  []byte
	PageID  storage.PageID
	ShardID ShardID
	PrevLSN LSN
	// TableID is not logged, and a decoded record holds 0. It stays
	// only while benchmark/ still sets it (ROADMAP's knob audit).
	TableID TableID
}

func (r *UpdateRec) Type() Type          { return TypeUpdate }
func (r *UpdateRec) Txn() TxnID          { return r.TxnID }
func (r *UpdateRec) Prev() LSN           { return r.PrevLSN }
func (r *UpdateRec) Key() uint64         { return r.KeyVal }
func (r *UpdateRec) PID() storage.PageID { return r.PageID }
func (r *UpdateRec) Shard() ShardID      { return r.ShardID }

// inPlace reports whether the patch keeps the row's length.
func (r *UpdateRec) inPlace() bool { return len(r.OldVal) == len(r.NewVal) }

// After returns the row the update leaves, given the row it met.
func (r *UpdateRec) After(cur []byte) ([]byte, error) {
	return patchRow(cur, r.Skip, r.Tail, r.inPlace(), r.NewVal)
}

// Applied reports whether cur already shows the update: false when the
// bytes between Skip and the tail are the before-middle, true when they
// are the after-middle (a re-delivered record); a row that is neither is
// ErrBadRecord. Trimmed middles differ in their first byte, so one row
// is never both. It is the screen of a consumer with no page LSN to
// screen by (an off-geometry standby).
func (r *UpdateRec) Applied(cur []byte) (bool, error) {
	tail, err := keptTail(cur, r.Skip, r.Tail, r.inPlace(), len(r.OldVal))
	if err == nil && uint64(r.Skip)+uint64(tail) > uint64(len(cur)) {
		_, err = Splice(cur, r.Skip, tail, nil)
	}
	if err != nil {
		return false, err
	}
	switch mid := cur[r.Skip : len(cur)-int(tail)]; {
	case bytes.Equal(mid, r.OldVal):
		return false, nil
	case bytes.Equal(mid, r.NewVal):
		return true, nil
	}
	return false, fmt.Errorf("%w: row is neither side of the update", ErrBadRecord)
}

func (r *UpdateRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	txn, prev, err := chainDists(r.TxnID, r.PrevLSN, at)
	if err != nil {
		return dst, err
	}
	p, t := commonEnds(r.OldVal, r.NewVal)
	dst = putUvarint(dst, txn)
	dst = putUvarint(dst, r.KeyVal)
	dst = putUvarint(dst, uint64(r.Skip)+uint64(p))
	dst = putPatch(dst, r.OldVal[p:len(r.OldVal)-t], r.NewVal[p:len(r.NewVal)-t])
	if !r.inPlace() {
		dst = putUvarint(dst, uint64(r.Tail)+uint64(t))
	}
	dst = putUvarint(dst, uint64(r.PageID))
	return putTrail(dst, prev, uint64(r.ShardID)), nil
}

func (r *UpdateRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.TxnID = d.txn()
	r.KeyVal = d.uvarint("key")
	r.Skip = d.uvarint32("skip")
	r.OldVal, r.NewVal = d.patch()
	r.Tail = 0
	if !r.inPlace() {
		r.Tail = d.uvarint32("tail")
	}
	r.PageID = storage.PageID(d.uvarint32("pid"))
	r.PrevLSN = d.trailBack("prev")
	r.ShardID = ShardID(d.trail32("shard"))
	d.chain(r.TxnID, r.PrevLSN)
	if err := d.finish(TypeUpdate); err != nil {
		return err
	}
	if p, t := commonEnds(r.OldVal, r.NewVal); p+t != 0 {
		return fmt.Errorf("%w: update patch of key %d not trimmed (%d+%d shared bytes)", ErrBadRecord, r.KeyVal, p, t)
	}
	return nil
}

// InsertRec logs insertion of a new row. Redo inserts; undo deletes.
type InsertRec struct {
	TxnID   TxnID
	KeyVal  uint64
	Val     []byte
	PageID  storage.PageID
	ShardID ShardID
	PrevLSN LSN
}

func (r *InsertRec) Type() Type          { return TypeInsert }
func (r *InsertRec) Txn() TxnID          { return r.TxnID }
func (r *InsertRec) Prev() LSN           { return r.PrevLSN }
func (r *InsertRec) Key() uint64         { return r.KeyVal }
func (r *InsertRec) PID() storage.PageID { return r.PageID }
func (r *InsertRec) Shard() ShardID      { return r.ShardID }

func (r *InsertRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	txn, prev, err := chainDists(r.TxnID, r.PrevLSN, at)
	if err != nil {
		return dst, err
	}
	dst = putUvarint(dst, txn)
	dst = putUvarint(dst, r.KeyVal)
	dst = putVarBytes(dst, r.Val)
	dst = putUvarint(dst, uint64(r.PageID))
	return putTrail(dst, prev, uint64(r.ShardID)), nil
}

func (r *InsertRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.TxnID = d.txn()
	r.KeyVal = d.uvarint("key")
	r.Val = d.varBytes("val")
	r.PageID = storage.PageID(d.uvarint32("pid"))
	r.PrevLSN = d.trailBack("prev")
	r.ShardID = ShardID(d.trail32("shard"))
	d.chain(r.TxnID, r.PrevLSN)
	return d.finish(TypeInsert)
}

// DeleteRec logs deletion of a row. Redo deletes; undo re-inserts OldVal.
type DeleteRec struct {
	TxnID   TxnID
	KeyVal  uint64
	OldVal  []byte
	PageID  storage.PageID
	ShardID ShardID
	PrevLSN LSN
}

func (r *DeleteRec) Type() Type          { return TypeDelete }
func (r *DeleteRec) Txn() TxnID          { return r.TxnID }
func (r *DeleteRec) Prev() LSN           { return r.PrevLSN }
func (r *DeleteRec) Key() uint64         { return r.KeyVal }
func (r *DeleteRec) PID() storage.PageID { return r.PageID }
func (r *DeleteRec) Shard() ShardID      { return r.ShardID }

func (r *DeleteRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	txn, prev, err := chainDists(r.TxnID, r.PrevLSN, at)
	if err != nil {
		return dst, err
	}
	dst = putUvarint(dst, txn)
	dst = putUvarint(dst, r.KeyVal)
	dst = putVarBytes(dst, r.OldVal)
	dst = putUvarint(dst, uint64(r.PageID))
	return putTrail(dst, prev, uint64(r.ShardID)), nil
}

func (r *DeleteRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.TxnID = d.txn()
	r.KeyVal = d.uvarint("key")
	r.OldVal = d.varBytes("old")
	r.PageID = storage.PageID(d.uvarint32("pid"))
	r.PrevLSN = d.trailBack("prev")
	r.ShardID = ShardID(d.trail32("shard"))
	d.chain(r.TxnID, r.PrevLSN)
	return d.finish(TypeDelete)
}

// CLRKind distinguishes which operation a CLR compensates.
type CLRKind uint8

// CLR kinds.
const (
	CLRUndoUpdate CLRKind = iota + 1 // patch the before-middle back in
	CLRUndoInsert                    // delete the inserted key
	CLRUndoDelete                    // re-insert the deleted row
)

// CLRRec is a compensation log record written during undo; Undo drafts
// every one. It is redo-only: UndoNextLSN points at the next record of
// the transaction still to be undone, so undo never repeats work after
// a crash during recovery. For CLRUndoUpdate it is the update's patch
// turned round (same Skip and Tail, RestoreVal the before-middle), so
// undo — above all crash undo, whose routed sweep may not read a page a
// worker is writing — never needs the whole before-image. For
// CLRUndoDelete RestoreVal is the whole row (Skip = Tail = 0); for
// CLRUndoInsert it is empty.
type CLRRec struct {
	TxnID  TxnID
	KeyVal uint64
	Kind   CLRKind
	Skip   uint32
	Tail   uint32
	// InPlace marks a CLRUndoUpdate that compensates an in-place update:
	// RestoreVal overwrites as many bytes at Skip, and Tail, which the
	// row's length gives, is ignored and not logged. It is the low bit of
	// the logged kind.
	InPlace     bool
	RestoreVal  []byte
	PageID      storage.PageID
	ShardID     ShardID
	UndoNextLSN LSN
	PrevLSN     LSN
}

func (r *CLRRec) Type() Type          { return TypeCLR }
func (r *CLRRec) Txn() TxnID          { return r.TxnID }
func (r *CLRRec) Prev() LSN           { return r.PrevLSN }
func (r *CLRRec) Key() uint64         { return r.KeyVal }
func (r *CLRRec) PID() storage.PageID { return r.PageID }
func (r *CLRRec) Shard() ShardID      { return r.ShardID }

// After returns the row a CLRUndoUpdate leaves, given the row it met.
func (r *CLRRec) After(cur []byte) ([]byte, error) {
	return patchRow(cur, r.Skip, r.Tail, r.InPlace, r.RestoreVal)
}

// Undo is the one rollback step of live abort, crash undo and a
// standby's promotion. It maps a record of a transaction's backchain to
// the CLR that compensates it — transaction, key, kind, patch or row,
// shard and UndoNextLSN filled; the caller fills page and PrevLSN as it
// logs it — to the next LSN of the chain to undo, and to whether
// applying the CLR can split a leaf: restoring a deleted row or a
// longer middle can, deleting an inserted row cannot (leaves never
// merge). A CLR is redo-only: it returns a nil CLR and skips on to its
// UndoNextLSN. Any other record has no place in a backchain.
func Undo(rec Record) (clr *CLRRec, next LSN, structural bool, err error) {
	switch r := rec.(type) {
	case *UpdateRec:
		return &CLRRec{
			TxnID: r.TxnID, KeyVal: r.KeyVal, Kind: CLRUndoUpdate, Skip: r.Skip, Tail: r.Tail,
			InPlace: r.inPlace(), RestoreVal: r.OldVal, ShardID: r.ShardID, UndoNextLSN: r.PrevLSN,
		}, r.PrevLSN, len(r.OldVal) > len(r.NewVal), nil
	case *InsertRec:
		return &CLRRec{
			TxnID: r.TxnID, KeyVal: r.KeyVal, Kind: CLRUndoInsert, ShardID: r.ShardID, UndoNextLSN: r.PrevLSN,
		}, r.PrevLSN, false, nil
	case *DeleteRec:
		return &CLRRec{
			TxnID: r.TxnID, KeyVal: r.KeyVal, Kind: CLRUndoDelete, RestoreVal: r.OldVal, ShardID: r.ShardID, UndoNextLSN: r.PrevLSN,
		}, r.PrevLSN, true, nil
	case *CLRRec:
		return nil, r.UndoNextLSN, false, nil
	}
	return nil, NilLSN, false, fmt.Errorf("%w: %v record in a backchain", ErrBadRecord, rec.Type())
}

func (r *CLRRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	txn, prev, err := chainDists(r.TxnID, r.PrevLSN, at)
	if err != nil {
		return dst, err
	}
	undoNext, err := backDist("undonext", r.UndoNextLSN, at)
	if err != nil {
		return dst, err
	}
	kind := uint64(r.Kind) << 1
	if r.InPlace {
		if r.Kind != CLRUndoUpdate {
			return dst, fmt.Errorf("%w: CLR of kind %d marked in place", ErrBadRecord, r.Kind)
		}
		kind |= 1
	}
	dst = putUvarint(dst, txn)
	dst = putUvarint(dst, r.KeyVal)
	dst = putUvarint(dst, kind)
	dst = putUvarint(dst, uint64(r.Skip))
	if !r.InPlace {
		dst = putUvarint(dst, uint64(r.Tail))
	}
	dst = putVarBytes(dst, r.RestoreVal)
	dst = putUvarint(dst, uint64(r.PageID))
	// A transaction's last CLR undoes its first record: UndoNextLSN is
	// the pointer most often nil, so it goes next to the shard.
	return putTrail(dst, prev, undoNext, uint64(r.ShardID)), nil
}

func (r *CLRRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.TxnID = d.txn()
	r.KeyVal = d.uvarint("key")
	kind := d.uvarint("kind")
	r.InPlace = kind&1 == 1
	if kind >>= 1; kind > math.MaxUint8 {
		d.refuse("kind", kind, "exceeds 8 bits")
	}
	r.Kind = CLRKind(kind)
	if r.InPlace && r.Kind != CLRUndoUpdate {
		d.refuse("kind", kind, "is marked in place")
	}
	r.Skip = d.uvarint32("skip")
	r.Tail = 0
	if !r.InPlace {
		r.Tail = d.uvarint32("tail")
	}
	r.RestoreVal = d.varBytes("restore")
	r.PageID = storage.PageID(d.uvarint32("pid"))
	r.PrevLSN = d.trailBack("prev")
	r.UndoNextLSN = d.trailBack("undonext")
	r.ShardID = ShardID(d.trail32("shard"))
	d.chain(r.TxnID, r.PrevLSN)
	return d.finish(TypeCLR)
}

// ---------------------------------------------------------------------
// Transaction termination
// ---------------------------------------------------------------------

// CommitRec ends a transaction successfully. Its body is the
// transaction's name alone: recovery goes by the name, and nothing walks
// a chain back from the record that ends it.
type CommitRec struct {
	TxnID TxnID
}

func (r *CommitRec) Type() Type { return TypeCommit }
func (r *CommitRec) Txn() TxnID { return r.TxnID }

func (r *CommitRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	return putEnd(dst, TypeCommit, r.TxnID, at)
}

func (r *CommitRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.TxnID = d.endTxn(TypeCommit)
	return d.finish(TypeCommit)
}

// AbortRec ends a transaction after its rollback completed. Its body is
// the transaction's name alone, as a commit's is.
type AbortRec struct {
	TxnID TxnID
}

func (r *AbortRec) Type() Type { return TypeAbort }
func (r *AbortRec) Txn() TxnID { return r.TxnID }

func (r *AbortRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	return putEnd(dst, TypeAbort, r.TxnID, at)
}

func (r *AbortRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.TxnID = d.endTxn(TypeAbort)
	return d.finish(TypeAbort)
}

// ---------------------------------------------------------------------
// Checkpointing (§3.2 penultimate scheme)
// ---------------------------------------------------------------------

// BeginCkptRec marks the start of a checkpoint. The flush of pages
// dirtied before this record happens between begin and end.
type BeginCkptRec struct{}

func (r *BeginCkptRec) Type() Type                                   { return TypeBeginCkpt }
func (r *BeginCkptRec) encodeBody(dst []byte, _ LSN) ([]byte, error) { return dst, nil }
func (r *BeginCkptRec) decodeBody(src []byte, at LSN) error {
	return newDecoder(src, at).finish(TypeBeginCkpt)
}

// ActiveTxn is one entry of the active-transaction table captured in an
// end-checkpoint record: the transaction, named by its first record's
// LSN like every record of it, and its most recent LSN, so undo can find
// losers whose records all precede the redo scan start.
type ActiveTxn struct {
	TxnID   TxnID
	LastLSN LSN
}

// EndCkptRec completes a checkpoint: all pages dirtied by operations
// before BeginLSN are now stable, so a crash after this record lets
// recovery start its redo scan at BeginLSN with an empty DPT.
type EndCkptRec struct {
	// BeginLSN is the LSN of the matching BeginCkptRec.
	BeginLSN LSN
	// Active is the transaction table at checkpoint begin.
	Active []ActiveTxn
	// Routes is the key→shard routing table the engine runs with.
	// Routes are fixed when the engine is built, so recovery reopens
	// the DCs under this table (or under the default routes when no
	// checkpoint was taken); no later record changes it.
	Routes []RouteEntry
}

func (r *EndCkptRec) Type() Type { return TypeEndCkpt }

func (r *EndCkptRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	dst = putUvarint(dst, uint64(r.BeginLSN))
	dst = putUvarint(dst, uint64(len(r.Active)))
	for _, a := range r.Active {
		txn, err := txnDist(a.TxnID, NilLSN, at)
		if err != nil {
			return dst, err
		}
		dst = putUvarint(dst, txn)
		dst = putUvarint(dst, uint64(a.LastLSN))
	}
	dst = putUvarint(dst, uint64(len(r.Routes)))
	for _, rt := range r.Routes {
		dst = putUvarint(dst, rt.Start)
		dst = putUvarint(dst, uint64(rt.Shard))
	}
	return dst, nil
}

func (r *EndCkptRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.BeginLSN = LSN(d.uvarint("beginLSN"))
	r.Active = make([]ActiveTxn, d.count("nactive", 2))
	for i := range r.Active {
		r.Active[i].TxnID = d.txn()
		r.Active[i].LastLSN = LSN(d.uvarint("active.lastLSN"))
	}
	r.Routes = make([]RouteEntry, d.count("nroutes", 2))
	for i := range r.Routes {
		r.Routes[i].Start = d.uvarint("route.start")
		r.Routes[i].Shard = ShardID(d.uvarint32("route.shard"))
	}
	return d.finish(TypeEndCkpt)
}

// ---------------------------------------------------------------------
// Flush / dirty tracking records
// ---------------------------------------------------------------------

// BWRec is SQL Server's Buffer Write log record (§3.3): the PIDs of
// pages whose flushes completed since the previous BW record, plus the
// end-of-stable-log captured at the first of those flushes (FW-LSN).
// The SQL-style analysis pass uses it to prune the DPT (Algorithm 3),
// which treats the WrittenSet as a set: it is kept in ascending order
// and logged as gaps (putGaps), a page flushed twice in the interval
// listed twice.
type BWRec struct {
	WrittenSet []storage.PageID
	FWLSN      LSN
	ShardID    ShardID
}

func (r *BWRec) Type() Type     { return TypeBW }
func (r *BWRec) Shard() ShardID { return r.ShardID }

func (r *BWRec) encodeBody(dst []byte, _ LSN) ([]byte, error) {
	if err := checkWritten("BW WrittenSet", r.WrittenSet); err != nil {
		return dst, err
	}
	dst = putGaps(putUvarint(dst, uint64(len(r.WrittenSet))), r.WrittenSet)
	dst = putUvarint(dst, uint64(r.FWLSN))
	return putTrail(dst, uint64(r.ShardID)), nil
}

func (r *BWRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.WrittenSet = d.gaps("writtenSet", d.uvarint("writtenSet"))
	r.FWLSN = LSN(d.uvarint("fwLSN"))
	r.ShardID = ShardID(d.trail32("shard"))
	if err := d.finish(TypeBW); err != nil {
		return err
	}
	return checkWritten("BW WrittenSet", r.WrittenSet)
}

// DeltaRec is the DC's ∆-log record (§4.1):
//
//	∆-logRec = (DirtySet, WrittenSet, FW-LSN, FirstDirty, TC-LSN)
//
// DirtySet holds, in update order, the PIDs of pages dirtied since the
// previous ∆ record. WrittenSet holds, in ascending order as a BW
// record's does, the PIDs whose flushes completed in the interval. FWLSN
// is the TC end-of-stable-log at the first flush of the interval.
// FirstDirty is the index in DirtySet of the first page dirtied after
// that first flush. TCLSN is the eLSN from the most recent
// EOSL when the record was written.
//
// Correctness requires every dirtied page to be captured in some ∆
// record (§4.1); the tracker enforces this by flushing the record when
// DirtySet reaches capacity.
//
// DirtyLSNs is the Appendix D.1 "perfect DPT" extension: when non-empty
// it is parallel to DirtySet and carries the LSN of each dirtying
// update, letting DC analysis build exactly the DPT SQL Server builds.
//
// BW marks a ∆ record that is also its flush batch's BW record: the
// tracker writes the ∆ exactly before the BW (§5.2), and when the two
// would list the same WrittenSet under the same FW-LSN it writes the ∆
// alone, so SQL analysis prunes with it as with a BWRec. It is logged as
// the low bit of the WrittenSet's count, so a marked ∆ is exactly as
// long as an unmarked one (the count takes one byte up to 63 pages).
type DeltaRec struct {
	DirtySet   []storage.PageID
	WrittenSet []storage.PageID
	FWLSN      LSN
	FirstDirty uint32
	TCLSN      LSN
	DirtyLSNs  []LSN
	ShardID    ShardID
	BW         bool
}

func (r *DeltaRec) Type() Type     { return TypeDelta }
func (r *DeltaRec) Shard() ShardID { return r.ShardID }

// check refuses a ∆ record analysis cannot mean: DirtyLSNs not parallel
// to DirtySet, FirstDirty past the end of DirtySet, a list naming the
// invalid page, a WrittenSet out of ascending order, or a BW mark on a
// record that lists no written page (no BW record is written for an
// empty batch). Both directions of the codec apply it.
func (r *DeltaRec) check() error {
	if r.BW && len(r.WrittenSet) == 0 {
		return fmt.Errorf("%w: delta marked as a BW record lists no written page", ErrBadRecord)
	}
	if len(r.DirtyLSNs) != 0 && len(r.DirtyLSNs) != len(r.DirtySet) {
		return fmt.Errorf("%w: delta DirtyLSNs length %d != DirtySet length %d",
			ErrBadRecord, len(r.DirtyLSNs), len(r.DirtySet))
	}
	if uint64(r.FirstDirty) > uint64(len(r.DirtySet)) {
		return fmt.Errorf("%w: delta FirstDirty %d past a DirtySet of %d", ErrBadRecord, r.FirstDirty, len(r.DirtySet))
	}
	if err := checkPIDs("delta DirtySet", r.DirtySet); err != nil {
		return err
	}
	return checkWritten("delta WrittenSet", r.WrittenSet)
}

func (r *DeltaRec) encodeBody(dst []byte, at LSN) ([]byte, error) {
	err := r.check()
	if err != nil {
		return dst, err
	}
	dst = putVarPIDs(dst, r.DirtySet)
	written := uint64(len(r.WrittenSet)) << 1
	if r.BW {
		written |= 1
	}
	dst = putGaps(putUvarint(dst, written), r.WrittenSet)
	dst = putUvarint(dst, uint64(r.FWLSN))
	dst = putUvarint(dst, uint64(r.FirstDirty))
	dst = putUvarint(dst, uint64(r.TCLSN))
	// The trailing fields are n,DirtyLSNs (empty but in the perfect
	// variant) and the shard.
	if len(r.DirtyLSNs) == 0 {
		return putTrail(dst, 0, uint64(r.ShardID)), nil
	}
	dst = putUvarint(dst, uint64(len(r.DirtyLSNs)))
	for _, l := range r.DirtyLSNs {
		if dst, err = putBack(dst, "dirtyLSN", l, at); err != nil {
			return dst, err
		}
	}
	return putTrail(dst, uint64(r.ShardID)), nil
}

func (r *DeltaRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.DirtySet = d.varPIDs("dirtySet")
	written := d.uvarint("writtenSet")
	r.BW = written&1 == 1
	r.WrittenSet = d.gaps("writtenSet", written>>1)
	r.FWLSN = LSN(d.uvarint("fwLSN"))
	r.FirstDirty = d.uvarint32("firstDirty")
	r.TCLSN = LSN(d.uvarint("tcLSN"))
	r.DirtyLSNs = make([]LSN, d.room("dirtyLSNs", d.trail("dirtyLSNs"), 1))
	for i := range r.DirtyLSNs {
		r.DirtyLSNs[i] = d.back("dirtyLSN")
	}
	r.ShardID = ShardID(d.trail32("shard"))
	if err := d.finish(TypeDelta); err != nil {
		return err
	}
	return r.check()
}

// ---------------------------------------------------------------------
// DC structure modifications
// ---------------------------------------------------------------------

// PageImage is a physiological after-image of one page.
type PageImage struct {
	PageID storage.PageID
	Data   []byte
}

// TreeMeta is the B-tree metadata resulting from an SMO: the root page,
// tree height and the page allocator's next PID. Replaying SMO records
// in order leaves the allocator and root exactly as they were. The
// tree's table is not logged: it is the tree's own, from its boot page.
type TreeMeta struct {
	Root    storage.PageID
	Height  uint32
	NextPID storage.PageID
}

// SMORec logs a B-tree structure modification (page split or root
// growth) as after-images of every page the SMO changed, plus the
// resulting tree metadata. SMO redo is physiological — the DC knows its
// own PIDs (§4) — and idempotent via the images' embedded pLSNs.
type SMORec struct {
	Meta    TreeMeta
	Images  []PageImage
	ShardID ShardID
}

func (r *SMORec) Type() Type     { return TypeSMO }
func (r *SMORec) Shard() ShardID { return r.ShardID }

// AffectedPIDs returns the set of pages this SMO rewrote — its images'
// PIDs. Parallel redo uses it to scope the SMO barrier to the workers
// owning those pages instead of pausing every shard.
func (r *SMORec) AffectedPIDs() []storage.PageID {
	out := make([]storage.PageID, len(r.Images))
	for i, img := range r.Images {
		out[i] = img.PageID
	}
	return out
}

func (r *SMORec) encodeBody(dst []byte, _ LSN) ([]byte, error) {
	dst = putUvarint(dst, uint64(r.Meta.Root))
	dst = putUvarint(dst, uint64(r.Meta.Height))
	dst = putUvarint(dst, uint64(r.Meta.NextPID))
	dst = putUvarint(dst, uint64(len(r.Images)))
	for _, img := range r.Images {
		dst = putUvarint(dst, uint64(img.PageID))
		dst = putVarBytes(dst, img.Data)
	}
	return putTrail(dst, uint64(r.ShardID)), nil
}

func (r *SMORec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.Meta.Root = storage.PageID(d.uvarint32("meta.root"))
	r.Meta.Height = d.uvarint32("meta.height")
	r.Meta.NextPID = storage.PageID(d.uvarint32("meta.nextPID"))
	r.Images = make([]PageImage, d.count("nimages", 2))
	for i := range r.Images {
		r.Images[i].PageID = storage.PageID(d.uvarint32("image.pid"))
		r.Images[i].Data = d.varBytes("image.data")
	}
	r.ShardID = ShardID(d.trail32("shard"))
	return d.finish(TypeSMO)
}

// RSSPRec records the redo-scan-start-point the TC sent to the DC via
// the RSSP control operation (§4.2). During DC recovery, the DC starts
// building its DPT at the first ∆ record whose TC-LSN exceeds the last
// recorded rsspLSN.
type RSSPRec struct {
	RsspLSN LSN
	ShardID ShardID
}

func (r *RSSPRec) Type() Type     { return TypeRSSP }
func (r *RSSPRec) Shard() ShardID { return r.ShardID }

func (r *RSSPRec) encodeBody(dst []byte, _ LSN) ([]byte, error) {
	dst = putUvarint(dst, uint64(r.RsspLSN))
	return putUvarint(dst, uint64(r.ShardID)), nil
}

func (r *RSSPRec) decodeBody(src []byte, at LSN) error {
	d := newDecoder(src, at)
	r.RsspLSN = LSN(d.uvarint("rsspLSN"))
	r.ShardID = ShardID(d.uvarint32("shard"))
	return d.finish(TypeRSSP)
}

// newRecord allocates the record struct for a type tag.
func newRecord(t Type) (Record, error) {
	switch t {
	case TypeUpdate:
		return &UpdateRec{}, nil
	case TypeInsert:
		return &InsertRec{}, nil
	case TypeDelete:
		return &DeleteRec{}, nil
	case TypeCommit:
		return &CommitRec{}, nil
	case TypeAbort:
		return &AbortRec{}, nil
	case TypeCLR:
		return &CLRRec{}, nil
	case TypeBeginCkpt:
		return &BeginCkptRec{}, nil
	case TypeEndCkpt:
		return &EndCkptRec{}, nil
	case TypeBW:
		return &BWRec{}, nil
	case TypeDelta:
		return &DeltaRec{}, nil
	case TypeSMO:
		return &SMORec{}, nil
	case TypeRSSP:
		return &RSSPRec{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrBadRecord, uint8(t))
	}
}

// Compile-time interface checks.
var (
	_ DataOp        = (*UpdateRec)(nil)
	_ DataOp        = (*InsertRec)(nil)
	_ DataOp        = (*DeleteRec)(nil)
	_ DataOp        = (*CLRRec)(nil)
	_ Transactional = (*CommitRec)(nil)
	_ Transactional = (*AbortRec)(nil)
	_ Sharded       = (*SMORec)(nil)
	_ Sharded       = (*DeltaRec)(nil)
	_ Sharded       = (*BWRec)(nil)
	_ Sharded       = (*RSSPRec)(nil)
)
