package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// checkpointLoop calls mgr.Checkpoint every 500 µs on its own
// goroutine, the way a caller checkpoints a live engine, until the
// returned stop is called. stop waits for the loop and returns how many
// checkpoints it took and its first error, where it stopped.
func checkpointLoop(mgr *tc.SessionManager) (stop func() (taken int64, err error)) {
	quit, done := make(chan struct{}), make(chan struct{})
	var taken int64
	var err error
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if err = mgr.Checkpoint(); err != nil {
					return
				}
				taken++
			}
		}
	}()
	return func() (int64, error) {
		close(quit)
		<-done
		return taken, err
	}
}

// TestRecoverFromLiveCheckpointedWAL is the checkpointing round-trip:
// concurrent sessions commit while a checkpoint loop emits
// BeginCkpt/EndCkpt/RSSP records into the live WAL, the engine crashes
// with pages partially flushed (some dirtied after the last checkpoint
// flip, some flushed by it and re-dirtied), and every recovery method
// must reproduce the committed state from a scan that starts at the
// checkpoint — not the cold head of the log.
func TestRecoverFromLiveCheckpointedWAL(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = 400
	cfg.DC.Tracker.FlushBatch = 16
	cfg.DC.Tracker.MaxDirty = 64
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3000
	om := make(oracle, rows)
	if err := eng.Load(rows, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	stopCheckpoints := checkpointLoop(mgr)

	// Concurrent committed traffic on disjoint key ranges, so the
	// combined per-client write sets form an exact oracle.
	const clients, txns, ops = 4, 120, 4
	perClient := rows / clients
	finals := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make(map[uint64][]byte)
			finals[c] = mine
			sess := mgr.NewSession()
			base := uint64(c * perClient)
			for i := 0; i < txns; i++ {
				if err := sess.Begin(); err != nil {
					errs <- err
					return
				}
				for u := 0; u < ops; u++ {
					k := base + uint64((i*ops+u)%perClient)
					v := []byte(fmt.Sprintf("c%02d-t%05d-u%d-final", c, i, u))
					if err := sess.Update(cfg.TableID, k, v); err != nil {
						errs <- err
						return
					}
					mine[k] = v
				}
				if err := sess.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One more checkpoint, then a burst of updates *after* it so the
	// crash finds pages dirtied past the checkpoint (partially flushed
	// state) and the redo scan has real work from the scan start.
	if taken, err := stopCheckpoints(); err != nil || taken == 0 {
		t.Fatalf("checkpoint loop: %d taken, error %v", taken, err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sess := mgr.NewSession()
	for i := 0; i < 40; i++ {
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		k := uint64(i * 7 % perClient)
		v := []byte(fmt.Sprintf("post-ckpt-%05d", i))
		if err := sess.Update(cfg.TableID, k, v); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
		finals[0][k] = v
	}

	for _, mine := range finals {
		for k, v := range mine {
			om[k] = v
		}
	}

	if eng.Log.AppendCount(wal.TypeRSSP) < 2 {
		t.Fatalf("expected live RSSP records, got %d", eng.Log.AppendCount(wal.TypeRSSP))
	}
	cs := eng.Crash()
	if cs.LastEndCkpt == wal.NilLSN {
		t.Fatal("crash state has no master checkpoint record")
	}

	totalOps := eng.Log.AppendCount(wal.TypeUpdate) +
		eng.Log.AppendCount(wal.TypeInsert) +
		eng.Log.AppendCount(wal.TypeDelete) +
		eng.Log.AppendCount(wal.TypeCLR)

	opt := DefaultOptions(cfg)
	for _, m := range Methods() {
		for _, workers := range []int{1, 4} {
			ropt := opt
			ropt.RedoWorkers = workers
			reng, met, err := Recover(cs, m, ropt)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			verifyRecovered(t, m, reng, om)
			// The checkpoint must bound the redo scan: the window holds
			// strictly fewer data ops than the whole log.
			if met.RedoRecords >= totalOps {
				t.Errorf("%v workers=%d: redo window %d records ≥ whole log's %d — scan start never advanced",
					m, workers, met.RedoRecords, totalOps)
			}
		}
	}
}

// TestOpenReaderAcrossCheckpointIsNotALoser leaves a transaction that
// only read open across a checkpoint and the crash, next to two real
// losers (one older than the checkpoint, one younger). It logged
// nothing, so the checkpoint's active table must not list it, no method
// may count it among the losers, and recovery writes no CLR and no abort
// record for it. The log names a transaction by its first record, so
// one that logged nothing has no name there at all.
func TestOpenReaderAcrossCheckpointIsNotALoser(t *testing.T) {
	cfg := testConfig(300)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 500
	om := make(oracle, rows)
	if err := eng.Load(rows, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	tcx := eng.TC
	mgr := eng.NewSessionManager(0)
	commit := func(ver int, keys ...uint64) {
		t.Helper()
		txn := begin(t, mgr)
		for _, k := range keys {
			if err := txn.Update(cfg.TableID, k, val(k, ver)); err != nil {
				t.Fatal(err)
			}
			om[k] = val(k, ver)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	lose := func(keys ...uint64) wal.TxnID {
		t.Helper()
		txn := begin(t, mgr)
		for _, k := range keys {
			if err := txn.Update(cfg.TableID, k, []byte("UNCOMMITTED")); err != nil {
				t.Fatal(err)
			}
		}
		return wal.TxnID(txn.Txn().FirstLSN())
	}

	commit(1, 1, 2, 3)
	reader := begin(t, mgr)
	for _, k := range []uint64{1, 400} {
		if _, found, err := reader.Read(cfg.TableID, k); err != nil || !found {
			t.Fatalf("read %d: found=%v err=%v", k, found, err)
		}
	}
	older := lose(10, 11, 12)
	if err := tcx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Log.Get(tcx.LastEndCkptLSN())
	if err != nil {
		t.Fatal(err)
	}
	if active := rec.(*wal.EndCkptRec).Active; len(active) != 1 || active[0].TxnID != older {
		t.Fatalf("checkpointed active table = %+v, want txn %d alone (the reader logged nothing)", active, older)
	}
	commit(2, 3, 4)
	younger := lose(20, 21)
	tcx.SendEOSL()
	stableEnd := eng.Log.FlushedLSN()
	cs := eng.Crash()

	for _, m := range Methods() {
		rec, met, err := Recover(cs, m, DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyRecovered(t, m, rec, om)
		if met.LosersUndone != 2 {
			t.Errorf("%v: LosersUndone = %d, want the 2 transactions that logged", m, met.LosersUndone)
		}
		if met.CLRsWritten != 5 {
			t.Errorf("%v: CLRsWritten = %d, want one per loser update (5)", m, met.CLRsWritten)
		}
		aborted := map[wal.TxnID]bool{}
		sc := rec.Log.NewScanner(rec.Log.StartLSN(), nil, wal.ScanCost{})
		for {
			r, lsn, ok, err := sc.Next()
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if !ok {
				break
			}
			tr, isTxn := r.(wal.Transactional)
			if !isTxn {
				continue
			}
			if lsn >= stableEnd && tr.Txn() != older && tr.Txn() != younger {
				t.Errorf("%v: recovery's %v record at %v names txn %d, not a loser", m, r.Type(), lsn, tr.Txn())
			}
			if r.Type() == wal.TypeAbort && lsn >= stableEnd {
				aborted[tr.Txn()] = true
			}
		}
		if len(aborted) != 2 || !aborted[older] || !aborted[younger] {
			t.Errorf("%v: recovery aborted %v, want txns %d and %d", m, aborted, older, younger)
		}
	}
}

// TestCheckpointedLoserFoundByFirstLSN: a loser whose every record lies
// below the redo scan start is known to recovery only through the
// checkpoint's active table, which names it by its first record's LSN.
// Every method finds it there and undoes it, and every CLR and the abort
// record name it by that LSN too.
func TestCheckpointedLoserFoundByFirstLSN(t *testing.T) {
	cfg := testConfig(300)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 500
	om := make(oracle, rows)
	if err := eng.Load(rows, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	tcx := eng.TC
	mgr := eng.NewSessionManager(0)
	loser := begin(t, mgr)
	for _, k := range []uint64{7, 8, 9} {
		if err := loser.Update(cfg.TableID, k, []byte("UNCOMMITTED")); err != nil {
			t.Fatal(err)
		}
	}
	first, last := loser.Txn().FirstLSN(), loser.Txn().LastLSN()
	if err := tcx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Log.Get(tcx.LastEndCkptLSN())
	if err != nil {
		t.Fatal(err)
	}
	end := rec.(*wal.EndCkptRec)
	if end.BeginLSN <= last {
		t.Fatalf("the loser's last record %v is not below the redo scan start %v", last, end.BeginLSN)
	}
	if want := (wal.ActiveTxn{TxnID: wal.TxnID(first), LastLSN: last}); len(end.Active) != 1 || end.Active[0] != want {
		t.Fatalf("checkpointed active table = %+v, want %+v", end.Active, want)
	}
	winner := begin(t, mgr)
	if err := winner.Update(cfg.TableID, 20, val(20, 1)); err != nil {
		t.Fatal(err)
	}
	om[20] = val(20, 1)
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}
	stableEnd := eng.Log.FlushedLSN()
	cs := eng.Crash()

	for _, m := range Methods() {
		rec, met, err := Recover(cs, m, DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyRecovered(t, m, rec, om)
		if met.LosersUndone != 1 || met.CLRsWritten != 3 {
			t.Errorf("%v: %d losers undone with %d CLRs, want 1 with 3", m, met.LosersUndone, met.CLRsWritten)
		}
		written := map[wal.Type]int{}
		sc := rec.Log.NewScanner(stableEnd, nil, wal.ScanCost{})
		for {
			r, lsn, ok, err := sc.Next()
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			if !ok {
				break
			}
			if tr, isTxn := r.(wal.Transactional); isTxn {
				written[r.Type()]++
				if tr.Txn() != wal.TxnID(first) {
					t.Errorf("%v: recovery's %v record at %v names txn %d, want the loser's first LSN %v", m, r.Type(), lsn, tr.Txn(), first)
				}
			}
		}
		if written[wal.TypeCLR] != 3 || written[wal.TypeAbort] != 1 {
			t.Errorf("%v: recovery wrote %v, want 3 CLRs and an abort", m, written)
		}
	}
}
