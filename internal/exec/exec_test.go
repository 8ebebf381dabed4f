// End-to-end tests for the typed executor: operators against a
// sharded engine, pushdown decode accounting, multi-op transactions,
// one-descent column updates, error passthrough, and a crash/recover
// typed round trip.
package exec_test

import (
	"errors"
	"fmt"
	"testing"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/exec"
	"logrec/internal/tc"
)

var rowSchema = exec.MustSchema(
	exec.Column{Name: "n", Type: exec.TUint64},
	exec.Column{Name: "name", Type: exec.TString},
	exec.Column{Name: "even", Type: exec.TBool},
)

func encodeRow(t testing.TB, k uint64) []byte {
	t.Helper()
	buf, err := rowSchema.Encode(k, fmt.Sprintf("row-%04d", k), k%2 == 0)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// newExecEngine builds a 4-shard engine preloaded with rows typed rows
// and returns it with an executor over a fresh session.
func newExecEngine(t testing.TB, rows int) (*engine.Engine, *exec.Executor) {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Shards = 4
	cfg.CachePages = 512
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(rows, func(k uint64) []byte { return encodeRow(t, k) }); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	return eng, exec.New(mgr.NewSession(), cfg.TableID, rowSchema)
}

func TestExecutorPointOps(t *testing.T) {
	_, ex := newExecEngine(t, 64)

	vals, ok, err := ex.Get(10)
	if err != nil || !ok {
		t.Fatalf("Get(10): %v ok=%v", err, ok)
	}
	if vals[0] != uint64(10) || vals[1] != "row-0010" || vals[2] != true {
		t.Fatalf("Get(10) = %v", vals)
	}

	if err := ex.Insert(1000, uint64(1000), "fresh", false); err != nil {
		t.Fatal(err)
	}
	if err := ex.UpdateCol(1000, "name", "renamed"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := ex.GetCol(1000, "name")
	if err != nil || !ok || v != "renamed" {
		t.Fatalf("GetCol = %v ok=%v err=%v", v, ok, err)
	}
	if err := ex.Delete(1000); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ex.Get(1000); ok {
		t.Fatal("row survived Delete")
	}

	// Session-layer sentinels pass through exec wrapping.
	if err := ex.UpdateCol(9999, "name", "x"); !errors.Is(err, tc.ErrKeyNotFound) {
		t.Fatalf("update of missing key: err = %v, want ErrKeyNotFound", err)
	}
	if _, _, err := ex.GetCol(1, "nope"); !errors.Is(err, exec.ErrNoColumn) {
		t.Fatalf("bad column: err = %v", err)
	}
	if err := ex.Insert(2000, "wrong", "types", 3); !errors.Is(err, exec.ErrSchema) {
		t.Fatalf("bad insert types: err = %v", err)
	}
}

func TestExecutorTxnComposesAndAborts(t *testing.T) {
	_, ex := newExecEngine(t, 64)
	err := ex.Txn(func() error {
		if err := ex.Update(1, uint64(1), "inside", false); err != nil {
			return err
		}
		return errors.New("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("Txn err = %v", err)
	}
	v, _, err := ex.GetCol(1, "name")
	if err != nil {
		t.Fatal(err)
	}
	if v != "row-0001" {
		t.Fatalf("aborted write visible: name = %v", v)
	}
}

func TestQueryOperatorsAndPushdown(t *testing.T) {
	_, ex := newExecEngine(t, 200)

	// Where pushdown: only matching rows are fully decoded.
	before := ex.DecodedRows()
	rows, err := ex.Scan(0, 99).Where("even", exec.Eq, true).Project("n", "name").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("got %d rows, want 50", len(rows))
	}
	if got := ex.DecodedRows() - before; got != 50 {
		t.Fatalf("pushdown decoded %d rows, want 50", got)
	}
	if len(rows[0].Cols) != 2 || rows[0].Cols[0] != uint64(0) || rows[0].Cols[1] != "row-0000" {
		t.Fatalf("projected row = %+v", rows[0])
	}

	// Same query without pushdown decodes every scanned row.
	before = ex.DecodedRows()
	rows2, err := ex.Scan(0, 99).Where("even", exec.Eq, true).NoPushdown().Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 50 {
		t.Fatalf("got %d rows, want 50", len(rows2))
	}
	if got := ex.DecodedRows() - before; got != 100 {
		t.Fatalf("post-filter decoded %d rows, want 100", got)
	}

	// Limit stops the scan early.
	before = ex.DecodedRows()
	few, err := ex.ScanAll().Limit(3).Rows()
	if err != nil || len(few) != 3 {
		t.Fatalf("limit: %d rows err=%v", len(few), err)
	}
	if got := ex.DecodedRows() - before; got != 3 {
		t.Fatalf("limited scan decoded %d rows, want 3", got)
	}

	// Filter is post-decode; Count composes.
	n, err := ex.Scan(0, 199).
		Where("n", exec.Ge, 100).
		Filter(func(_ uint64, vals []any) bool { return vals[2].(bool) }).
		Count()
	if err != nil || n != 50 {
		t.Fatalf("count = %d err=%v, want 50", n, err)
	}

	// Builder errors surface at run time.
	if _, err := ex.ScanAll().Where("nope", exec.Eq, 1).Rows(); !errors.Is(err, exec.ErrNoColumn) {
		t.Fatalf("bad where column: err = %v", err)
	}
}

// TestBatchRun: a batch of mixed typed ops — reads, an update, an
// insert, a delete — runs as one Executor.Txn, and a batch whose last op
// fails commits none of its writes.
func TestBatchRun(t *testing.T) {
	_, ex := newExecEngine(t, 64)

	var first, last []any
	err := ex.Txn(func() error {
		var err error
		if first, _, err = ex.Get(5); err != nil {
			return err
		}
		if err := ex.Update(6, uint64(6), "batched", true); err != nil {
			return err
		}
		if err := ex.Insert(500, uint64(500), "new", false); err != nil {
			return err
		}
		if err := ex.Delete(7); err != nil {
			return err
		}
		last, _, err = ex.Get(63)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || first[1] != "row-0005" {
		t.Fatalf("first read = %v", first)
	}
	if last == nil || last[0] != uint64(63) {
		t.Fatalf("last read = %v", last)
	}
	if v, _, _ := ex.GetCol(6, "name"); v != "batched" {
		t.Fatalf("batched update lost: %v", v)
	}
	if _, ok, _ := ex.Get(500); !ok {
		t.Fatal("batched insert lost")
	}
	if _, ok, _ := ex.Get(7); ok {
		t.Fatal("batched delete lost")
	}

	// A failing op aborts the enclosing transaction: nothing commits.
	err = ex.Txn(func() error {
		if err := ex.Update(8, uint64(8), "doomed", false); err != nil {
			return err
		}
		return ex.UpdateCol(9999, "name", "missing")
	})
	if !errors.Is(err, tc.ErrKeyNotFound) {
		t.Fatalf("batch with missing key: err = %v", err)
	}
	if v, _, _ := ex.GetCol(8, "name"); v != "row-0008" {
		t.Fatalf("failed batch leaked a write: %v", v)
	}
}

// TestUpdateColTakesOneDescent: UpdateCol reads, changes and rewrites
// its row in one root-to-leaf pass — as many pool lookups as the tree
// is high — and a value the schema rejects fails with ErrSchema leaving
// the row and the log as they were, so a transaction whose only write
// it was commits without a record.
func TestUpdateColTakesOneDescent(t *testing.T) {
	eng, ex := newExecEngine(t, 4000)
	const key = 1234
	d := eng.DCs[eng.Set.Locate(key)]
	height := int64(d.Tree().Meta().Height)
	if height < 2 {
		t.Fatalf("tree height %d: the test needs an internal level to tell one pass from two", height)
	}
	lookups := func() int64 { st := d.Pool().Stats(); return st.Hits + st.Misses }

	err := ex.Txn(func() error {
		before := lookups()
		if err := ex.UpdateCol(key, "name", "one-pass"); err != nil {
			return err
		}
		if got := lookups() - before; got != height {
			t.Errorf("UpdateCol: %d pool lookups, want %d: one pass down a tree of height %d", got, height, height)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := ex.GetCol(key, "name"); v != "one-pass" {
		t.Fatalf("name = %v after UpdateCol", v)
	}

	records := eng.Log.Records()
	err = ex.Txn(func() error {
		if err := ex.UpdateCol(key, "n", "not a number"); !errors.Is(err, exec.ErrSchema) {
			t.Errorf("UpdateCol with a rejected value: err = %v, want ErrSchema", err)
		}
		return nil // commit what the transaction did: nothing
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Log.Records(); got != records {
		t.Fatalf("a rejected column value and its commit appended %d records, want 0", got-records)
	}
	if vals, _, _ := ex.Get(key); vals[0] != uint64(key) || vals[1] != "one-pass" {
		t.Fatalf("row = %v after a rejected UpdateCol", vals)
	}
}

func TestExecutorCrashRecoveryTypedRoundTrip(t *testing.T) {
	eng, ex := newExecEngine(t, 128)

	if err := ex.Txn(func() error {
		for k := uint64(0); k < 10; k++ {
			if err := ex.Update(k, k, fmt.Sprintf("committed-%d", k), false); err != nil {
				return err
			}
		}
		return ex.Insert(300, uint64(300), "fresh-row", true)
	}); err != nil {
		t.Fatal(err)
	}

	// A transaction left uncommitted at the crash must vanish.
	sess := ex.Session()
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	loser := exec.New(sess, 1, rowSchema)
	if err := loser.Update(20, uint64(20), "UNCOMMITTED", false); err != nil {
		t.Fatal(err)
	}

	eng.TC.SendEOSL()
	crash := eng.Crash()
	rec, _, err := core.Recover(crash, core.Log2, core.DefaultOptions(eng.Cfg))
	if err != nil {
		t.Fatal(err)
	}

	rmgr := rec.NewSessionManager(0)
	rex := exec.New(rmgr.NewSession(), rec.Cfg.TableID, rowSchema)
	rows, err := rex.ScanAll().Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 129 {
		t.Fatalf("recovered %d rows, want 129", len(rows))
	}
	byKey := map[uint64][]any{}
	for _, r := range rows {
		byKey[r.Key] = r.Cols
	}
	for k := uint64(0); k < 10; k++ {
		if byKey[k][1] != fmt.Sprintf("committed-%d", k) {
			t.Fatalf("key %d: committed write lost: %v", k, byKey[k])
		}
	}
	if byKey[300] == nil || byKey[300][1] != "fresh-row" {
		t.Fatalf("committed insert lost: %v", byKey[300])
	}
	if byKey[20][1] != "row-0020" {
		t.Fatalf("uncommitted write survived: %v", byKey[20])
	}
}
