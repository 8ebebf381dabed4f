package core

import (
	"bytes"
	"testing"

	"logrec/internal/engine"
	"logrec/internal/wal"
)

// TestReplayAbsorbsAnAppliedUpdate: a standby applies each data record
// in one descent guarded by row state, so a record delivered again —
// or a CLR whose row already shows its effect — is absorbed: it counts
// in Ops but not in Applied and writes nothing, so the leaf keeps the
// pLSN the first delivery stamped and stays clean. A CLR that puts a deleted row back over
// a present one still restores the row.
func TestReplayAbsorbsAnAppliedUpdate(t *testing.T) {
	const (
		present = 123 // loaded
		absent  = 500 // past the loaded keys
	)
	table := testConfig(64).TableID
	upd := &wal.UpdateRec{TxnID: 5, KeyVal: present, OldVal: val(present, 0), NewVal: val(present, 1)}
	ins := &wal.InsertRec{TxnID: 5, KeyVal: absent, Val: val(absent, 1)}
	del := &wal.DeleteRec{TxnID: 5, KeyVal: present, OldVal: val(present, 0)}
	undoInsert := &wal.CLRRec{TxnID: 5, KeyVal: absent, Kind: wal.CLRUndoInsert}
	undoDelete := &wal.CLRRec{TxnID: 5, KeyVal: present, Kind: wal.CLRUndoDelete, RestoreVal: val(present, 7)}

	cases := []struct {
		name string
		// first is delivered before the standby checkpoints, which leaves
		// every page clean; last is delivered after.
		first    []wal.DataOp
		last     wal.DataOp
		absorbed bool
		want     []byte // the row under last's key at the end; nil if absent
	}{
		{"update delivered twice", []wal.DataOp{upd}, upd, true, val(present, 1)},
		{"insert delivered twice", []wal.DataOp{ins}, ins, true, val(absent, 1)},
		{"delete delivered twice", []wal.DataOp{del}, del, true, nil},
		{"CLR undo-insert of an absent key", nil, undoInsert, true, nil},
		{"CLR undo-delete over a present row", nil, undoDelete, false, val(present, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(64)
			cfg.Standby = true
			standby, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := standby.Load(300, func(k uint64) []byte { return val(k, 0) }); err != nil {
				t.Fatal(err)
			}
			rp := NewReplayer(standby)
			deliver := func(rec wal.DataOp) wal.LSN {
				lsn := standby.Log.MustAppend(rec)
				standby.Log.Flush()
				if err := rp.CatchUp(); err != nil {
					t.Fatal(err)
				}
				return lsn
			}
			key := tc.last.Key()
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

			var firstLSN wal.LSN
			for _, rec := range tc.first {
				firstLSN = deliver(rec)
			}
			if err := rp.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before, _ := leaf()
			// The first delivery stamps the leaf with its own LSN.
			if len(tc.first) > 0 && before != uint64(firstLSN) {
				t.Fatalf("leaf after the first delivery: pLSN %d, want %d", before, firstLSN)
			}
			lastLSN := deliver(tc.last)

			wantApplied := int64(len(tc.first))
			wantLSN, wantDirty := before, false
			if !tc.absorbed {
				wantApplied++
				wantLSN, wantDirty = uint64(lastLSN), true
			}
			if st := rp.Stats(); st.Ops != int64(len(tc.first))+1 || st.Applied != wantApplied {
				t.Fatalf("Ops %d, Applied %d; want %d and %d", st.Ops, st.Applied, len(tc.first)+1, wantApplied)
			}
			if lsn, dirty := leaf(); lsn != wantLSN || dirty != wantDirty {
				t.Fatalf("leaf after the last delivery: pLSN %d, dirty %v; want %d, dirty %v", lsn, dirty, wantLSN, wantDirty)
			}
			got, found, err := standby.DC.Read(table, key)
			if err != nil || found != (tc.want != nil) || !bytes.Equal(got, tc.want) {
				t.Fatalf("row %q (found %v, err %v), want %q", got, found, err, tc.want)
			}
		})
	}
}
