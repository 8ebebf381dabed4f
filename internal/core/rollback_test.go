package core

import (
	"reflect"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// TestAbortAndCrashUndoWriteTheSameCLRs checks the one rollback step
// from both ends. A transaction grows one row, shrinks another,
// overwrites a third in place, inserts a row and deletes one. On one
// engine Session.Abort rolls it back; an identical engine crashes with
// it open, and every method undoes it at undo widths 0 and 2. Both
// write the same CLRs in the same order, equal in every field but the
// backchain link, whose LSN moves with what recovery appends before its
// undo pass.
func TestAbortAndCrashUndoWriteTheSameCLRs(t *testing.T) {
	const nRows = 500
	cfg := testConfig(300)
	open := func() (*engine.Engine, *tc.Session) {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(nRows, func(k uint64) []byte { return val(k, 0) }); err != nil {
			t.Fatal(err)
		}
		s := begin(t, eng.NewSessionManager(0))
		inPlace := val(30, 0)
		inPlace[1] = 'X'
		for i, op := range []func() error{
			func() error { return s.Update(cfg.TableID, 10, append(val(10, 0), "-grown"...)) },
			func() error { return s.Update(cfg.TableID, 20, []byte("short")) },
			func() error { return s.Update(cfg.TableID, 30, inPlace) },
			func() error { return s.Insert(cfg.TableID, nRows+7, val(nRows+7, 1)) },
			func() error { return s.Delete(cfg.TableID, 40) },
		} {
			if err := op(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		return eng, s
	}
	// Every CLR field but PrevLSN.
	type clrFields struct {
		Kind        wal.CLRKind
		KeyVal      uint64
		Skip, Tail  uint32
		InPlace     bool
		RestoreVal  string
		ShardID     wal.ShardID
		PageID      uint64
		UndoNextLSN wal.LSN
		TxnID       wal.TxnID
	}
	clrs := func(l *wal.Log) []clrFields {
		var out []clrFields
		sc := l.NewScanner(l.StartLSN(), nil, wal.ScanCost{})
		for {
			rec, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			if c, isCLR := rec.(*wal.CLRRec); isCLR {
				out = append(out, clrFields{c.Kind, c.KeyVal, c.Skip, c.Tail, c.InPlace, string(c.RestoreVal), c.ShardID, uint64(c.PageID), c.UndoNextLSN, c.TxnID})
			}
		}
	}

	eng, s := open()
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	eng.Log.Flush()
	want := clrs(eng.Log)
	if len(want) != 5 {
		t.Fatalf("abort wrote %d CLRs, want 5: %+v", len(want), want)
	}
	for i, inPlace := range []bool{false, false, true, false, false} {
		if want[i].InPlace != inPlace {
			t.Fatalf("abort CLR %d in place %v, want %v: %+v", i, want[i].InPlace, inPlace, want[i])
		}
	}

	crashed, _ := open()
	crashed.TC.SendEOSL()
	cs := crashed.Crash()
	for _, m := range Methods() {
		for _, w := range []int{0, 2} {
			rec, _, err := Recover(cs, m, Options{UndoWorkers: w})
			if err != nil {
				t.Fatalf("%v undo width %d: %v", m, w, err)
			}
			if got := clrs(rec.Log); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v undo width %d wrote CLRs\n%+v\nSession.Abort wrote\n%+v", m, w, got, want)
			}
		}
	}
}
