package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/engine"
	"logrec/internal/page"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/tracker"
	"logrec/internal/wal"
)

// begin opens a transaction on a new session of mgr.
func begin(t testing.TB, mgr *tc.SessionManager) *tc.Session {
	t.Helper()
	s := mgr.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	return s
}

// testConfig builds a small, fast engine configuration.
func testConfig(cachePages int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.CachePages = cachePages
	cfg.DC.Tracker.FlushBatch = 16
	cfg.DC.Tracker.MaxDirty = 64
	return cfg
}

func val(k uint64, ver int) []byte {
	return []byte(fmt.Sprintf("v%03d-%08d-padpadpadpad", ver%1000, k))
}

// oracle tracks committed state alongside the engine.
type oracle map[uint64][]byte

// buildCrash loads nRows, runs committed update transactions with
// periodic checkpoints, optionally leaves an uncommitted transaction at
// the crash, and returns the crash state plus the committed-state
// oracle.
func buildCrash(t testing.TB, cfg engine.Config, nRows, txns, updatesPerTxn, ckptEvery int, seed int64, leaveOpen bool) (*engine.CrashState, oracle) {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle, nRows)
	if err := eng.Load(nRows, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	mgr := eng.NewSessionManager(0)
	for i := 0; i < txns; i++ {
		txn := begin(t, mgr)
		staged := make(map[uint64][]byte)
		for u := 0; u < updatesPerTxn; u++ {
			k := uint64(rng.Intn(nRows))
			v := val(k, i+1)
			if err := txn.Update(cfg.TableID, k, v); err != nil {
				t.Fatalf("txn %d update: %v", i, err)
			}
			staged[k] = v
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for k, v := range staged {
			om[k] = v
		}
		if (i+1)%ckptEvery == 0 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if leaveOpen {
		// An in-flight transaction at the crash: its updates must be
		// undone by recovery and must NOT appear in the oracle.
		txn := begin(t, mgr)
		for u := 0; u < updatesPerTxn; u++ {
			k := uint64(rng.Intn(nRows))
			if err := txn.Update(cfg.TableID, k, []byte("UNCOMMITTED-GARBAGE-value")); err != nil {
				t.Fatal(err)
			}
		}
		// Flush the log so the loser's records survive the crash and
		// undo has real work (commit never happens).
		eng.TC.SendEOSL()
	}
	return eng.Crash(), om
}

// verifyRecovered checks the recovered engine's table, over all of its
// shards, equals the oracle.
func verifyRecovered(t testing.TB, m Method, eng *engine.Engine, om oracle) {
	t.Helper()
	got := make(map[uint64][]byte)
	for i, d := range eng.DCs {
		err := d.Tree().Scan(func(k uint64, v []byte) error {
			got[k] = append([]byte(nil), v...)
			return nil
		})
		if err != nil {
			t.Fatalf("%v: shard %d scan: %v", m, i, err)
		}
		if err := d.Tree().CheckInvariants(); err != nil {
			t.Fatalf("%v: shard %d tree invariants after recovery: %v", m, i, err)
		}
	}
	if len(got) != len(om) {
		t.Fatalf("%v: recovered %d rows, oracle has %d", m, len(got), len(om))
	}
	for k, want := range om {
		if !bytes.Equal(got[k], want) {
			t.Fatalf("%v: key %d: got %q want %q", m, k, got[k], want)
		}
	}
}

// TestRecoverAllMethodsMatchOracle recovers one crash under every
// method with the skip audit on, once with the table cached and once
// with a cache too small for it, whose flushes let the DPT screens skip.
func TestRecoverAllMethodsMatchOracle(t *testing.T) {
	audited := auditSkips(t)
	for _, c := range []struct{ cache, txns int }{{300, 120}, {12, 140}} {
		cache := c.cache
		cfg := testConfig(cache)
		cs, om := buildCrash(t, cfg, 2000, c.txns, 10, 30, 42, true)
		opt := DefaultOptions(cfg)
		for _, m := range Methods() {
			before := audited.Load()
			eng, met, err := Recover(cs, m, opt)
			if err != nil {
				t.Fatalf("cache %d %v: %v", cache, m, err)
			}
			verifyRecovered(t, m, eng, om)
			if got, want := audited.Load()-before, met.SkippedDPT+met.SkippedRLSN; got != want {
				t.Fatalf("cache %d %v: audited %d skips, the screen made %d", cache, m, got, want)
			}
			if met.RedoRecords == 0 {
				t.Fatalf("cache %d %v: redo saw no records", cache, m)
			}
			if met.LosersUndone != 1 {
				t.Fatalf("cache %d %v: LosersUndone = %d, want 1", cache, m, met.LosersUndone)
			}
			if met.CLRsWritten == 0 {
				t.Fatalf("cache %d %v: no CLRs written for the loser", cache, m)
			}
		}
	}
	if audited.Load() == 0 {
		t.Fatal("no method skipped a record: the skip audit checked nothing")
	}
}

// TestFileRecoveredEngineKeepsItsCommits crashes a file-device engine
// that recovery produced: what it committed after the first crash, with
// and without a checkpoint between the two crashes, must survive the
// second under every method. The recovered engine lives in its fork's
// directory and checkpoints into that directory's master record; one
// left pointing at the first crash's directory re-recovers the first
// crash and loses the commit.
func TestFileRecoveredEngineKeepsItsCommits(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		cfg := testConfig(300)
		cfg.Device, cfg.Dir = engine.DeviceFile, t.TempDir()
		cs, om := buildCrash(t, cfg, 1500, 40, 10, 25, 3, true)
		eng, _, err := Recover(cs, Log2, DefaultOptions(cfg))
		if err != nil {
			t.Fatal(err)
		}
		s := begin(t, eng.NewSessionManager(0))
		v := []byte("after-first-recovery-padpad")
		if err := s.Update(cfg.TableID, 7, v); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		om[7] = v
		if ckpt {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		cs2 := eng.Crash()
		for _, m := range Methods() {
			again, _, err := Recover(cs2, m, DefaultOptions(cfg))
			if err != nil {
				t.Fatalf("checkpoint %v, %v: %v", ckpt, m, err)
			}
			verifyRecovered(t, m, again, om)
		}
	}
}

func TestRecoverNoLoser(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrash(t, cfg, 1500, 80, 10, 25, 7, false)
	opt := DefaultOptions(cfg)
	for _, m := range Methods() {
		eng, met, err := Recover(cs, m, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyRecovered(t, m, eng, om)
		if met.LosersUndone != 0 {
			t.Fatalf("%v: LosersUndone = %d, want 0", m, met.LosersUndone)
		}
	}
}

// TestRecoverWithInsertsAndDeletes exercises SMO replay during recovery:
// inserts grow the tree past the checkpoint, so recovery must replay
// splits before logical redo can traverse correctly.
func TestRecoverWithInsertsAndDeletes(t *testing.T) {
	cfg := testConfig(400)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle)
	if err := eng.Load(1000, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	nextKey := uint64(1000)
	mgr := eng.NewSessionManager(0)
	for i := 0; i < 150; i++ {
		txn := begin(t, mgr)
		staged := make(map[uint64][]byte)
		var deleted []uint64
		for u := 0; u < 8; u++ {
			switch rng.Intn(3) {
			case 0: // insert a fresh key
				k := nextKey
				nextKey++
				v := val(k, i+1)
				if err := txn.Insert(cfg.TableID, k, v); err != nil {
					t.Fatal(err)
				}
				staged[k] = v
			case 1: // update an original key
				k := uint64(rng.Intn(1000))
				if _, gone := om[k]; !gone {
					continue
				}
				v := val(k, i+1)
				if err := txn.Update(cfg.TableID, k, v); err != nil {
					t.Fatal(err)
				}
				staged[k] = v
			case 2: // delete an original key if still present
				k := uint64(rng.Intn(1000))
				if _, ok := om[k]; !ok {
					continue
				}
				if _, ok := staged[k]; ok {
					continue
				}
				already := false
				for _, dk := range deleted {
					if dk == k {
						already = true
					}
				}
				if already {
					continue
				}
				if err := txn.Delete(cfg.TableID, k); err != nil {
					t.Fatal(err)
				}
				deleted = append(deleted, k)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		for k, v := range staged {
			om[k] = v
		}
		for _, k := range deleted {
			delete(om, k)
		}
		if (i+1)%40 == 0 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := eng.Crash()
	opt := DefaultOptions(cfg)
	for _, m := range Methods() {
		recovered, _, err := Recover(cs, m, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		verifyRecovered(t, m, recovered, om)
	}
}

// TestOtherTableSurvivesRecovery: no record names a table, so a
// recovered tree keeps the table of its boot page, however many SMOs
// redo installs over it. An engine whose table is 7 grows its tree past
// its last checkpoint with inserts, leaves a loser open and crashes;
// every method recovers table 7 with the committed rows, and a session
// on table 7 reads and writes afterwards while table 1 is refused.
func TestOtherTableSurvivesRecovery(t *testing.T) {
	const table = 7
	cfg := testConfig(400)
	cfg.TableID = table
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	om := make(oracle)
	if err := eng.Load(1000, func(k uint64) []byte {
		v := val(k, 0)
		om[k] = v
		return v
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	next := uint64(1000)
	for i := 0; i < 80; i++ {
		txn := begin(t, mgr)
		for u := 0; u < 8; u++ {
			v := val(next, i+1)
			if err := txn.Insert(table, next, v); err != nil {
				t.Fatal(err)
			}
			om[next] = v
			next++
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	loser := begin(t, mgr)
	for k := uint64(0); k < 8; k++ {
		if err := loser.Insert(table, next+k, []byte("UNCOMMITTED-GARBAGE-value")); err != nil {
			t.Fatal(err)
		}
	}
	eng.TC.SendEOSL()
	cs := eng.Crash()

	smos := 0
	sc := cs.Log.NewScanner(cs.LastEndCkpt, &sim.Clock{}, wal.DefaultScanCost())
	for {
		rec, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if _, isSMO := rec.(*wal.SMORec); isSMO {
			smos++
		}
	}
	sc.Close()
	if smos == 0 {
		t.Fatal("no SMO past the last checkpoint: the test lost its point")
	}

	for _, m := range Methods() {
		rec, _, err := Recover(cs, m, DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := rec.DC.Tree().Meta().TableID; got != table {
			t.Fatalf("%v: recovered tree's table is %d, want %d", m, got, table)
		}
		verifyRecovered(t, m, rec, om)
		s := begin(t, rec.NewSessionManager(0))
		if v, found, err := s.Read(table, 1001); err != nil || !found || !bytes.Equal(v, om[1001]) {
			t.Fatalf("%v: read of table %d after recovery: %q %v %v", m, table, v, found, err)
		}
		if err := s.Update(table, 1001, []byte("after-recovery")); err != nil {
			t.Fatalf("%v: write to table %d after recovery: %v", m, table, err)
		}
		if err := s.Update(1, 1002, []byte("x")); err == nil {
			t.Fatalf("%v: a write to table 1 succeeded on an engine holding table %d", m, table)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveredEngineUsable continues running transactions and another
// crash/recovery cycle on a recovered engine.
func TestRecoveredEngineUsable(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrash(t, cfg, 1000, 60, 10, 20, 5, false)
	eng, _, err := Recover(cs, Log2, DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	// New transactions on the recovered engine.
	for i := 0; i < 40; i++ {
		txn := begin(t, mgr)
		k := uint64(i * 7 % 1000)
		v := []byte(fmt.Sprintf("post-recovery-%d-padding", i))
		if err := txn.Update(cfg.TableID, k, v); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		om[k] = v
	}
	if err := eng.TC.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash again and recover with a different method.
	cs2 := eng.Crash()
	eng2, _, err := Recover(cs2, SQL1, DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, SQL1, eng2, om)
}

// TestRedoIdempotence recovers, crashes immediately without further
// work, recovers again: the second recovery must apply nothing beyond
// what pLSN tests allow and produce identical state.
func TestRedoIdempotence(t *testing.T) {
	cfg := testConfig(300)
	cs, om := buildCrash(t, cfg, 1000, 60, 10, 20, 11, false)
	eng, _, err := Recover(cs, Log1, DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, Log1, eng, om)
	// Crash the recovered engine without flushing anything new.
	cs2 := eng.Crash()
	eng2, _, err := Recover(cs2, Log1, DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, Log1, eng2, om)
}

// TestDPTSafety verifies §3's safety property on a real crash: every
// page dirty in the cache at the crash appears in the constructed DPT,
// or is covered by the tail of the log.
func TestDPTSafety(t *testing.T) {
	cfg := testConfig(300)
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(1500, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	mgr := eng.NewSessionManager(0)
	for i := 0; i < 100; i++ {
		txn := begin(t, mgr)
		for u := 0; u < 10; u++ {
			k := uint64(rng.Intn(1500))
			if err := txn.Update(cfg.TableID, k, val(k, i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if (i+1)%30 == 0 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Dirty pages at the crash, from the live pool (the oracle).
	dirty := dirtyPIDs(eng)
	if len(dirty) == 0 {
		t.Fatal("no page dirty at the crash: the test lost its point")
	}
	cs := eng.Crash()

	// Build the logical DPT exactly as Log1 recovery would.
	opt := DefaultOptions(cfg)
	clock, _, log, err := cs.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = clock
	rec, err := log.Get(cs.LastEndCkpt)
	if err != nil {
		t.Fatal(err)
	}
	scanStart := rec.(*wal.EndCkptRec).BeginLSN

	// Reuse the recovery machinery via a full run, then cross-check.
	_, met, err := Recover(cs, Log1, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the DPT standalone for the membership check.
	r2 := &run{cs: cs, m: Log1, opt: opt, clock: &sim.Clock{}, log: cs.Log, met: &Metrics{}, txns: newTxnTable(), scanStart: scanStart}
	// dcPass needs a DC; fork one.
	clock3, disks3, log3, err3 := cs.Fork(0)
	if err3 != nil {
		t.Fatal(err3)
	}
	d3, err := dc.Open(clock3, disks3[0], log3, cfg.CachePages, 0, cfg.DC)
	if err != nil {
		t.Fatal(err)
	}
	r2.log = log3
	r2.clock = clock3
	sr2 := &shardRun{r: r2, id: 0, d: d3}
	r2.shards = []*shardRun{sr2}
	sc := log3.NewScanner(scanStart, clock3, cfg.ScanCost)
	if err := sr2.dcPass(sc.Next); err != nil {
		t.Fatal(err)
	}
	if sr2.table.Len() != met.DPTSize {
		t.Fatalf("standalone DPT size %d != recovery's %d", sr2.table.Len(), met.DPTSize)
	}
	// Safety: every dirty page is in the DPT, or dirtied only by tail
	// operations (whose redo never consults the DPT).
	for _, pid := range dirty {
		if sr2.table.Find(pid) == nil {
			if !coveredByTail(t, cs.Log, sr2.lastDeltaTCLSN, pid) {
				t.Fatalf("dirty page %d missing from DPT and not covered by the log tail", pid)
			}
		}
	}
}

// coveredByTail reports whether pid is updated by a record at or past
// the last ∆ record's TC-LSN (basic-mode redo re-fetches those pages
// unconditionally).
func coveredByTail(t *testing.T, log *wal.Log, lastDelta wal.LSN, pid storage.PageID) bool {
	t.Helper()
	sc := log.NewScanner(lastDelta, nil, wal.ScanCost{})
	defer sc.Close()
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
		if lsn < lastDelta {
			continue
		}
		if op, isOp := rec.(wal.DataOp); isOp && op.PID() == pid {
			return true
		}
	}
}

// TestLog1MatchesSQL1DataFetchesWithPerfectDelta checks §5.3's claim
// ("Log1 issues exactly the same data page requests as SQL1") in the
// regime where it holds exactly: the perfect-∆ variant (Appendix D.1)
// and an empty log tail.
func TestLog1MatchesSQL1DataFetchesWithPerfectDelta(t *testing.T) {
	cfg := testConfig(300)
	cfg.DC.Tracker.Variant = tracker.DeltaPerfect
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(1500, func(k uint64) []byte { return val(k, 0) }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mgr := eng.NewSessionManager(0)
	for i := 0; i < 100; i++ {
		txn := begin(t, mgr)
		for u := 0; u < 10; u++ {
			k := uint64(rng.Intn(1500))
			if err := txn.Update(cfg.TableID, k, val(k, i+1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if err := eng.TC.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Close the ∆/BW interval so the tail is empty and both DPTs see
	// the same flush information.
	eng.DC.Recorder().ForceEmit()
	eng.TC.SendEOSL()
	cs := eng.Crash()
	opt := DefaultOptions(cfg)
	_, metLog, err := Recover(cs, Log1, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, metSQL, err := Recover(cs, SQL1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if metLog.TailRecords != 0 {
		t.Fatalf("tail not empty: %d records", metLog.TailRecords)
	}
	if metLog.DataPageFetches != metSQL.DataPageFetches {
		t.Fatalf("data fetches differ: Log1 %d, SQL1 %d (DPT %d vs %d)",
			metLog.DataPageFetches, metSQL.DataPageFetches, metLog.DPTSize, metSQL.DPTSize)
	}
}

// dirtyPIDs returns, in ascending order, the pages of eng's (one-shard,
// simulated-disk) pool that are dirty: resident at a pLSN past their
// device image's, or never written. Every page change stamps a new pLSN
// and a flush writes the frame's image, so this is the pool's dirty set.
func dirtyPIDs(eng *engine.Engine) []storage.PageID {
	disk := eng.DC.Disk().(*storage.Disk)
	var out []storage.PageID
	for pid := storage.MetaPageID + 1; pid < eng.DC.Tree().Meta().NextPID; pid++ {
		plsn, ok := eng.DC.Pool().ResidentLSN(pid)
		if !ok {
			continue
		}
		if img, stored := disk.Image(pid); !stored || page.WrapShared(img).LSN() < plsn {
			out = append(out, pid)
		}
	}
	return out
}
