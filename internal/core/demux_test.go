package core

import (
	"errors"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/sim"
	"logrec/internal/wal"
)

// TestFailedPassStopsTheScan: a pass that fails on its first record
// stops the demultiplexer, which returns that pass's error without
// decoding the rest of a window several log segments long.
func TestFailedPassStopsTheScan(t *testing.T) {
	log := wal.NewLog()
	val := make([]byte, 200)
	for log.Segments() < 4 {
		log.MustAppend(&wal.InsertRec{TxnID: wal.OpensTxn, KeyVal: 1, Val: val})
	}
	log.Flush()
	window := log.StableRecords()

	for _, shards := range []int{1, 3} {
		r := newRun(new(sim.Clock), log, wal.DefaultScanCost(), Options{}, make([]*dc.DC, shards))
		boom := errors.New("boom")
		err := r.fanOut(log.StartLSN(), nil, shardOf, func(sr *shardRun, next nextFunc) error {
			if _, _, ok, err := next(); err != nil || !ok {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("shards=%d: fanOut returned %v, want the failing pass's error", shards, err)
		}
		if r.met.DecodeRecords > window/10 {
			t.Errorf("shards=%d: the scan decoded %d of the window's %d records after its pass failed on the first",
				shards, r.met.DecodeRecords, window)
		}
	}
}
