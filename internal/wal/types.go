// Package wal implements the shared write-ahead log used by both
// recovery families, following §5.1 of the paper: one log carries the
// TC's logical update records (table + key; the PID field is present but
// ignored by logical recovery), commit/abort/CLR records, checkpoint
// bracketing records, the SQL-Server-style BW-log records (§3.3), the
// DC's ∆-log records (§4.1), and the DC's physiological SMO records.
//
// An LSN is the byte offset of a record in the log; LSN space begins at
// FirstLSN so offset 0 never addresses a record and can serve as the nil
// LSN. The log is stored as a chain of record-aligned segments (log.go)
// whose boundaries take up no LSN space.
package wal

import (
	"errors"
	"fmt"

	"logrec/internal/storage"
)

// LSN is a log sequence number: the byte offset of a record's frame in
// the log. LSNs are totally ordered by log position.
type LSN uint64

// NilLSN is the absent LSN. The log's leading header guarantees no
// record ever has it.
const NilLSN LSN = 0

func (l LSN) String() string { return fmt.Sprintf("lsn:%d", uint64(l)) }

// TxnID names a transaction in the log: the LSN of its first record. A
// record logs it as its distance back to that record (format v7), so a
// transaction costs its records a byte or two however many came before
// it. TxnID 0 is reserved for non-transactional (system) records. The
// TC's in-memory handle (tc.Txn.ID) is another number and is never
// logged.
type TxnID uint64

// OpensTxn names the transaction a record opens. The record is its
// transaction's first, so its name is its own LSN, which Append has not
// chosen yet when the record is built. It is logged as distance 0, and
// the decoded record carries its LSN instead.
const OpensTxn = ^TxnID(0)

// TableID identifies a table (and its clustered B-tree) in the DC.
type TableID uint32

// ShardID identifies one data component behind the TC. The engine
// range-partitions the key space across N DCs (shards 0..N-1), all
// logging to this one shared log; every DC-scoped record (data
// operations, SMOs, ∆/BW/RSSP records) carries its shard so recovery
// can demultiplex the log into per-shard redo/undo pipelines. A
// single-DC engine is simply the N=1 case: every record carries shard 0.
type ShardID uint32

// RouteEntry is one range of the TC's key→shard routing table: keys at
// or above Start (and below the next entry's Start) belong to Shard.
// The table is persisted in end-checkpoint records, and recovery
// reopens the shards under the table it finds there.
type RouteEntry struct {
	Start uint64
	Shard ShardID
}

// Type tags a log record.
type Type uint8

// Log record types.
const (
	TypeInvalid Type = iota
	// TypeUpdate is a transactional update of an existing record,
	// identified logically by (Table, Key). The PID field exists so the
	// same log can drive physiological recovery (§5.1); logical
	// recovery ignores it.
	TypeUpdate
	// TypeInsert is a transactional insert of a new record.
	TypeInsert
	// TypeDelete is a transactional delete of an existing record.
	TypeDelete
	// TypeCommit ends a transaction successfully.
	TypeCommit
	// TypeAbort ends a transaction after rollback completes.
	TypeAbort
	// TypeCLR is a compensation log record written during undo.
	TypeCLR
	// TypeBeginCkpt marks the start of a penultimate checkpoint (§3.2).
	TypeBeginCkpt
	// TypeEndCkpt marks checkpoint completion; it names its begin
	// record and carries the active-transaction table.
	TypeEndCkpt
	// TypeBW is SQL Server's Buffer Write record: the PIDs flushed
	// since the previous BW record plus the first-write LSN (§3.3).
	TypeBW
	// TypeDelta is the DC's ∆-log record: DirtySet, WrittenSet, FW-LSN,
	// FirstDirty and TC-LSN (§4.1). Appendix D variants add DirtyLSNs
	// or omit FW-LSN/FirstDirty.
	TypeDelta
	// TypeSMO is a DC structure-modification record carrying
	// physiological after-images of the pages changed by a B-tree
	// split, plus the resulting tree metadata. DC recovery replays
	// these before any TC redo so the B-tree is well-formed (§1.2).
	TypeSMO
	// TypeRSSP records the redo-scan-start-point LSN the TC sent via
	// the RSSP control operation, so the DC knows where its own
	// recovery scan begins (§4.2).
	TypeRSSP

	// 13 was the shard-map record of online range migration, which is
	// gone: routes are fixed when the engine is built. It must not be
	// reused, so a log that holds one fails to decode ("unknown record
	// type") instead of replaying as something else.
)

func (t Type) String() string {
	switch t {
	case TypeUpdate:
		return "update"
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeCLR:
		return "clr"
	case TypeBeginCkpt:
		return "begin-ckpt"
	case TypeEndCkpt:
		return "end-ckpt"
	case TypeBW:
		return "bw"
	case TypeDelta:
		return "delta"
	case TypeSMO:
		return "smo"
	case TypeRSSP:
		return "rssp"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is a decodable log record.
type Record interface {
	// Type returns the record's type tag.
	Type() Type
	// encodeBody appends the body (everything after the frame header)
	// of the record at LSN at to dst and returns the extended slice. It
	// fails exactly when decodeBody would refuse the bytes: a
	// back-pointer that does not point below at into the log, a ∆ or BW
	// record analysis cannot mean.
	encodeBody(dst []byte, at LSN) ([]byte, error)
	// decodeBody parses the body of the record at LSN at.
	decodeBody(src []byte, at LSN) error
}

// Transactional is implemented by records that belong to a transaction
// (updates, inserts, deletes, CLRs, commit, abort).
type Transactional interface {
	Record
	// Txn returns the owning transaction.
	Txn() TxnID
}

// DataOp is implemented by the three data-modifying record kinds plus
// CLRs; it exposes the logical identity and the physiological hint that
// both redo families need.
type DataOp interface {
	Transactional
	Sharded
	// Key identifies the record logically: the engine has one table.
	Key() uint64
	// PID is the physiological page hint captured at normal-operation
	// time. Logical recovery ignores it.
	PID() storage.PageID
}

// Sharded is implemented by records scoped to one data component:
// recovery routes them to that shard's redo/undo pipeline.
type Sharded interface {
	Record
	// Shard returns the owning data component.
	Shard() ShardID
}

// Errors returned by log operations.
var (
	// ErrTruncated indicates a record frame extends past the end of the
	// stable log.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrBadRecord indicates a record body failed to parse.
	ErrBadRecord = errors.New("wal: malformed record")
	// ErrOutOfRange indicates an LSN outside the stable log.
	ErrOutOfRange = errors.New("wal: LSN out of range")
	// ErrReleased indicates an LSN below Log.StartLSN: the segment that
	// held it has been released.
	ErrReleased = errors.New("wal: LSN released")
)
