// Package exec is the typed executor: an algebra layer over the
// session plane that replaces raw point ops on opaque byte slices with
// schemas, typed rows, query operators and transactions.
//
// The layering is strict — exec never touches pages or the log; it
// compiles typed operations down to the same session-plane calls the
// raw API exposes:
//
//	Query operator tree (Scan · Where · Filter · Project · Limit)
//	        │ pushdown: key range + compiled predicate
//	        ▼
//	Session.ScanRange / Read / Patch   (per-shard planes, logical locks)
//	        │
//	        ▼
//	B-tree iterator (pred runs on page-resident bytes, pre-copy)
//
// Where predicates compile to a partial-decode closure (Schema.
// DecodeCol) that the B-tree iterator evaluates before a row is
// copied, locked or decoded — the executor's decode counter therefore
// only ticks for surviving rows, which is the measurable win of
// pushdown over post-filtering. The raw Session API remains the
// documented low-level plane; exec is the client surface.
package exec

import (
	"errors"
	"fmt"

	"logrec/internal/tc"
	"logrec/internal/wal"
)

// Executor-layer error sentinels. Session-layer errors (lock
// conflicts, busy sessions, missing keys) pass through wrapped, so
// errors.Is against the tc sentinels keeps working on every exec
// return.
var (
	// ErrSchema indicates a value that does not fit the schema: wrong
	// arity, wrong column type, oversized payload, or an encoded row
	// whose header or layout the schema rejects.
	ErrSchema = errors.New("exec: schema mismatch")

	// ErrNoColumn indicates a reference to a column name the schema
	// does not define.
	ErrNoColumn = errors.New("exec: no such column")
)

// Executor runs typed operations against one table through a session.
// One goroutine drives an executor, like the session it wraps;
// independent executors over independent sessions run concurrently.
type Executor struct {
	sess   *tc.Session
	table  wal.TableID
	schema *Schema

	// decoded counts full-row decodes — the work pushdown avoids.
	decoded int64
}

// New returns an executor over sess for table rows shaped by schema.
func New(sess *tc.Session, table wal.TableID, schema *Schema) *Executor {
	return &Executor{sess: sess, table: table, schema: schema}
}

// Schema returns the executor's row schema.
func (ex *Executor) Schema() *Schema { return ex.schema }

// Session returns the underlying session (escape hatch to the raw
// low-level plane).
func (ex *Executor) Session() *tc.Session { return ex.sess }

// DecodedRows returns how many full-row decodes this executor has
// performed. Pushdown scans decode only surviving rows; post-filter
// scans decode everything — the difference is this counter.
func (ex *Executor) DecodedRows() int64 { return ex.decoded }

// decode is the counted full-row decode.
func (ex *Executor) decode(buf []byte) ([]any, error) {
	ex.decoded++
	return ex.schema.Decode(buf)
}

// inTxn reports whether the session has an active transaction.
func (ex *Executor) inTxn() bool { return ex.sess.Txn() != nil }

// autoTxn runs fn inside the session's current transaction when one is
// active, and otherwise wraps fn in its own Begin/Commit (Abort on
// error). Single typed ops are therefore transactions of their own
// unless composed under Txn.
func (ex *Executor) autoTxn(fn func() error) error {
	if ex.inTxn() {
		return fn()
	}
	return ex.Txn(fn)
}

// Txn runs fn as one transaction: Begin, fn, Commit — or Abort when fn
// fails, in which case fn's error is returned. Typed ops and queries
// issued inside fn share the transaction and its locks.
func (ex *Executor) Txn(fn func() error) error {
	if err := ex.sess.Begin(); err != nil {
		return fmt.Errorf("exec: begin: %w", err)
	}
	if err := fn(); err != nil {
		if aerr := ex.sess.Abort(); aerr != nil {
			return fmt.Errorf("exec: abort after %v: %w", err, aerr)
		}
		return err
	}
	if err := ex.sess.Commit(); err != nil {
		return fmt.Errorf("exec: commit: %w", err)
	}
	return nil
}

// Get reads the row at key, decoded into one value per column. ok is
// false when the key is absent.
func (ex *Executor) Get(key uint64) (vals []any, ok bool, err error) {
	err = ex.autoTxn(func() error {
		raw, found, rerr := ex.sess.Read(ex.table, key)
		if rerr != nil {
			return fmt.Errorf("exec: get %d: %w", key, rerr)
		}
		if !found {
			return nil
		}
		v, derr := ex.decode(raw)
		if derr != nil {
			return derr
		}
		vals, ok = v, true
		return nil
	})
	return vals, ok, err
}

// GetCol reads one named column of the row at key via partial decode.
func (ex *Executor) GetCol(key uint64, col string) (val any, ok bool, err error) {
	i, found := ex.schema.ColIndex(col)
	if !found {
		return nil, false, fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	err = ex.autoTxn(func() error {
		raw, have, rerr := ex.sess.Read(ex.table, key)
		if rerr != nil {
			return fmt.Errorf("exec: get %d: %w", key, rerr)
		}
		if !have {
			return nil
		}
		v, derr := ex.schema.DecodeCol(raw, i)
		if derr != nil {
			return derr
		}
		val, ok = v, true
		return nil
	})
	return val, ok, err
}

// Insert adds a new row at key with one value per column.
func (ex *Executor) Insert(key uint64, vals ...any) error {
	buf, err := ex.schema.Encode(vals...)
	if err != nil {
		return err
	}
	return ex.autoTxn(func() error {
		if err := ex.sess.Insert(ex.table, key, buf); err != nil {
			return fmt.Errorf("exec: insert %d: %w", key, err)
		}
		return nil
	})
}

// Update replaces the row at key with one value per column.
func (ex *Executor) Update(key uint64, vals ...any) error {
	buf, err := ex.schema.Encode(vals...)
	if err != nil {
		return err
	}
	return ex.autoTxn(func() error {
		if err := ex.sess.Update(ex.table, key, buf); err != nil {
			return fmt.Errorf("exec: update %d: %w", key, err)
		}
		return nil
	})
}

// UpdateCol rewrites one named column of the row at key, leaving the
// other columns as they are. The row is decoded, changed and re-encoded
// inside the one descent that finds it (Session.Patch); a value the
// schema rejects changes and logs nothing.
func (ex *Executor) UpdateCol(key uint64, col string, val any) error {
	i, found := ex.schema.ColIndex(col)
	if !found {
		return fmt.Errorf("%w: %q", ErrNoColumn, col)
	}
	return ex.autoTxn(func() error {
		err := ex.sess.Patch(ex.table, key, func(cur []byte) ([]byte, error) {
			vals, err := ex.decode(cur)
			if err != nil {
				return nil, err
			}
			vals[i] = val
			return ex.schema.Encode(vals...)
		})
		if err != nil {
			return fmt.Errorf("exec: update %d: %w", key, err)
		}
		return nil
	})
}

// Delete removes the row at key.
func (ex *Executor) Delete(key uint64) error {
	return ex.autoTxn(func() error {
		if err := ex.sess.Delete(ex.table, key); err != nil {
			return fmt.Errorf("exec: delete %d: %w", key, err)
		}
		return nil
	})
}
