package harness

import (
	"testing"

	"logrec/internal/core"
	"logrec/internal/wal"
)

// TestEveryChainNamedByItsBottom is the log's naming property over a
// crashed and recovered log: walking the retained log in LSN order,
// every record of a fully retained PrevLSN chain names its transaction
// by the LSN of the chain's bottom record — the normal-operation
// records, the early losers' records from far below the crash, and the
// CLRs and abort records recovery appends for them.
func TestEveryChainNamedByItsBottom(t *testing.T) {
	cfg := DefaultConfig().Scaled(8)
	cfg.OpenTxns, cfg.OpenTxnUpdates, cfg.EarlyLosers = 3, 4, true
	res, err := BuildCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, met, err := core.Recover(res.Crash, core.Log2, core.DefaultOptions(cfg.Engine))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(eng, res.Oracle); err != nil {
		t.Fatal(err)
	}
	if met.LosersUndone != 3 || met.CLRsWritten != 12 {
		t.Fatalf("%d losers undone with %d CLRs, want 3 with 12", met.LosersUndone, met.CLRsWritten)
	}

	// bottom maps each record of a fully retained chain to its chain's
	// bottom; a record whose predecessor is not in it lies on a chain
	// that reaches below the retained log.
	bottom := map[wal.LSN]wal.LSN{}
	var checked, far, clrs int
	sc := eng.Log.NewScanner(eng.Log.StartLSN(), nil, wal.ScanCost{})
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		tr, isTxn := rec.(wal.Transactional)
		if !isTxn {
			continue
		}
		b := lsn
		if prev := tr.Prev(); prev != wal.NilLSN {
			var retained bool
			if b, retained = bottom[prev]; !retained {
				continue
			}
		}
		bottom[lsn] = b
		if tr.Txn() != wal.TxnID(b) {
			t.Fatalf("%v record at %v names txn %d, its chain's bottom is %v", rec.Type(), lsn, tr.Txn(), b)
		}
		checked++
		if lsn-b >= 1<<14 {
			far++ // the name takes three bytes
		}
		if rec.Type() == wal.TypeCLR {
			clrs++
		}
	}
	if checked < 1000 || clrs != 12 || far == 0 {
		t.Fatalf("checked %d records, %d CLRs, %d named from 16 KB or more back: the log lost its point", checked, clrs, far)
	}
}
