// Shard-parallel stress: mixed single- and cross-shard transactions
// race each other on a 4-shard engine under -race, then the engine
// crashes.
// The recovered state must equal a serial replay of the stable log's
// committed transactions — an oracle that is independent of the
// recovery implementation and of every interleaving the planes allowed.
package tc_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// replayCommitted rebuilds the expected row state: start from the
// bulk-loaded base, find every committed transaction on the stable log,
// and apply exactly their forward data records in log order. CLRs are
// skipped — committed transactions have none, and losers' effects must
// not surface at all.
func replayCommitted(t *testing.T, log *wal.Log, base map[uint64]string) map[uint64]string {
	t.Helper()
	committed := map[wal.TxnID]bool{}
	sc := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	for {
		rec, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if c, isCommit := rec.(*wal.CommitRec); isCommit {
			committed[c.TxnID] = true
		}
	}
	state := make(map[uint64]string, len(base))
	for k, v := range base {
		state[k] = v
	}
	sc = log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	for {
		rec, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		switch r := rec.(type) {
		case *wal.UpdateRec:
			if committed[r.TxnID] {
				// The record is a patch of the row the replay has so far.
				row, err := r.After([]byte(state[r.KeyVal]))
				if err != nil {
					t.Fatalf("serial replay of key %d: %v", r.KeyVal, err)
				}
				state[r.KeyVal] = string(row)
			}
		case *wal.InsertRec:
			if committed[r.TxnID] {
				state[r.KeyVal] = string(r.Val)
			}
		case *wal.DeleteRec:
			if committed[r.TxnID] {
				delete(state, r.KeyVal)
			}
		}
	}
	return state
}

func TestShardParallelStressCrashRecoverMatchesSerialReplay(t *testing.T) {
	const (
		rows    = 4096
		clients = 8
		txns    = 30
	)
	cfg := engine.DefaultConfig()
	cfg.CachePages = 256
	cfg.Shards = 4
	cfg.KeySpan = rows
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := map[uint64]string{}
	if err := eng.Load(rows, func(k uint64) []byte {
		v := fmt.Sprintf("init-%06d", k)
		base[k] = v
		return []byte(v)
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)

	// runTxn drives one transaction's ops, retrying conflicts with other
	// clients until commit or a deliberate abort.
	runTxn := func(sess *tc.Session, keys []uint64, tag string, abort bool) error {
		for attempt := 0; ; attempt++ {
			if attempt == 100 {
				return fmt.Errorf("txn %s starved after %d attempts", tag, attempt)
			}
			if err := sess.Begin(); err != nil {
				return err
			}
			failed := false
			for _, k := range keys {
				if err := sess.Update(cfg.TableID, k, []byte(tag)); err != nil {
					failed = true
					break
				}
			}
			if failed || abort {
				if err := sess.Abort(); err != nil {
					return err
				}
				if failed {
					time.Sleep(time.Duration(attempt+1) * 50 * time.Microsecond)
					continue
				}
				return nil
			}
			return sess.Commit()
		}
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			for i := 0; i < txns; i++ {
				tag := fmt.Sprintf("c%02d-t%03d", c, i)
				// Skewed base key on shard 0's range.
				hot := uint64((c*7 + i*13) % 256)
				var keys []uint64
				if i%3 == 0 {
					// Cross-shard: hot key plus a far key on another shard.
					keys = []uint64{hot, hot + 2048}
				} else {
					// Single-shard pair.
					keys = []uint64{hot, hot + 1}
				}
				if err := runTxn(sess, keys, tag, i%5 == 4); err != nil {
					fail(fmt.Errorf("client %d: %w", c, err))
					return
				}
			}
		}(c)
	}

	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// A transaction left in flight at the crash: a loser the replay
	// must exclude and recovery must undo.
	loser := mgr.NewSession()
	if err := loser.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update(cfg.TableID, 1500, []byte("UNCOMMITTED")); err != nil {
		t.Fatal(err)
	}
	eng.TC.SendEOSL()

	crash := eng.Crash()
	want := replayCommitted(t, crash.Log, base)

	rec, _, err := core.Recover(crash, core.Log2, core.DefaultOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Set.Routes(), eng.Set.Routes(); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered routes %v, the crash had %v", got, want)
	}
	got := map[uint64]string{}
	if err := rec.Set.ScanAll(func(k uint64, v []byte) error {
		if _, dup := got[k]; dup {
			return fmt.Errorf("key %d surfaced twice in the recovered scan", k)
		}
		got[k] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("recovered %d rows, serial replay has %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("key %d missing after recovery (replay has %q)", k, w)
		} else if g != w {
			t.Errorf("key %d = %q, replay says %q", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("key %d present after recovery but absent from replay", k)
		}
	}

	// Point reads through the recovered routing agree with the scan
	// (each key is owned by exactly one shard).
	for _, k := range []uint64{0, 64, 127, 255, 1500, 2048, 3500, rows - 1} {
		v, found, err := rec.Set.At(rec.Set.Locate(k)).Tree().Search(k)
		if err != nil || !found {
			t.Fatalf("recovered read of %d: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(v, []byte(got[k])) {
			t.Fatalf("recovered read of %d = %q, scan said %q", k, v, got[k])
		}
	}
}
