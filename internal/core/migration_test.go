package core

import (
	"bytes"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/wal"
)

// crashBeforeCommit is the TC's appender for one test: it snapshots the
// engine's crash state on the first commit record it is handed, after
// forcing everything before it, so the crash's stable end falls between
// that transaction's last record and its commit.
type crashBeforeCommit struct {
	*wal.Log
	eng *engine.Engine
	cs  *engine.CrashState
}

func (a *crashBeforeCommit) MustAppend(rec wal.Record) wal.LSN {
	if _, ok := rec.(*wal.CommitRec); ok && a.cs == nil {
		a.Flush()
		a.cs = a.eng.Crash()
	}
	return a.Log.MustAppend(rec)
}

// TestCommittedAndLoserMigrationInOneWindow puts two range migrations in
// one redo window: the first commits, the second is cut by the crash
// between its ShardMapRec and its commit record. Every method must keep
// only the committed migration's route and roll the loser's rows back
// onto their old shard.
func TestCommittedAndLoserMigrationInOneWindow(t *testing.T) {
	const (
		rows      = 400
		won, lost = 120, 40 // split points: [120, 200) and [40, 120) move to shard 1
	)
	cfg := testConfig(128)
	cfg.Shards = 2
	cfg.KeySpan = rows
	cfg.DC.CleanerTarget = 0
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(rows, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	if err := mgr.SplitRange(cfg.TableID, won, 1); err != nil {
		t.Fatal(err)
	}
	cut := &crashBeforeCommit{Log: eng.Log, eng: eng}
	eng.TC.SetAppender(cut)
	if err := mgr.SplitRange(cfg.TableID, lost, 1); err != nil {
		t.Fatal(err)
	}
	if cut.cs == nil {
		t.Fatal("the second migration logged no commit record")
	}

	for _, m := range Methods() {
		rec, met, err := Recover(cut.cs, m, DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if met.RouteChanges != 1 {
			t.Errorf("%v: RouteChanges = %d, want 1", m, met.RouteChanges)
		}
		if met.LosersUndone != 1 {
			t.Errorf("%v: LosersUndone = %d, want the cut migration", m, met.LosersUndone)
		}
		for k := uint64(0); k < rows; k++ {
			home := wal.ShardID(0)
			if k >= won {
				home = 1
			}
			if got := rec.Set.Locate(k); got != home {
				t.Fatalf("%v: key %d routes to shard %d, want %d", m, k, got, home)
			}
			v, found, err := rec.Set.At(home).Read(cfg.TableID, k)
			if err != nil || !found || !bytes.Equal(v, val(k, 0)) {
				t.Fatalf("%v: key %d on shard %d: %q found=%v err=%v", m, k, home, v, found, err)
			}
			if _, found, _ := rec.Set.At(1-home).Read(cfg.TableID, k); found {
				t.Fatalf("%v: key %d also on shard %d", m, k, 1-home)
			}
		}
	}
}
