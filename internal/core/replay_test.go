package core

import (
	"testing"

	"logrec/internal/engine"
	"logrec/internal/wal"
)

// TestReplayAbsorbsAnAppliedUpdate: an update whose row already shows
// its after-middle — the same record delivered twice — counts in Ops but
// not in Applied, and writes nothing: the page keeps the first
// delivery's pLSN and stays clean.
func TestReplayAbsorbsAnAppliedUpdate(t *testing.T) {
	cfg := testConfig(64)
	cfg.Standby = true
	standby, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.Load(300, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	const key = 123
	upd := &wal.UpdateRec{TxnID: 5, TableID: cfg.TableID, KeyVal: key, OldVal: val(key, 0), NewVal: val(key, 1)}
	rp := NewReplayer(standby)
	deliver := func() wal.LSN {
		lsn := standby.Log.MustAppend(upd)
		standby.Log.Flush()
		if err := rp.CatchUp(); err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	leaf := func() (lsn uint64, dirty bool) {
		pid, err := standby.DC.Tree().FindLeaf(key)
		if err != nil {
			t.Fatal(err)
		}
		f, err := standby.DC.Pool().Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		defer standby.DC.Pool().Unpin(f)
		return f.Page.LSN(), f.Dirty
	}

	first := deliver()
	if err := rp.Checkpoint(); err != nil { // every page clean
		t.Fatal(err)
	}
	deliver()
	if st := rp.Stats(); st.Ops != 2 || st.Applied != 1 {
		t.Fatalf("two deliveries of one update: Ops %d, Applied %d; want 2 and 1", st.Ops, st.Applied)
	}
	if lsn, dirty := leaf(); lsn != uint64(first) || dirty {
		t.Fatalf("leaf after the absorbed delivery: pLSN %d, dirty %v; want %d, clean", lsn, dirty, first)
	}
	if got, _, _ := standby.DC.Read(cfg.TableID, key); string(got) != string(val(key, 1)) {
		t.Fatalf("row %q, want %q", got, val(key, 1))
	}
}
