// Writers, readers and checkpoints together under -race: two writers
// commit pairs of updates (one in five aborts on purpose), two
// read-only sessions read and scan the same keys and never log, and a
// checkpoint loop checkpoints every 500 µs. Then the engine crashes with a
// writer and a reader left open, and every recovery method must rebuild
// exactly what the writers were told was committed.
package tc_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

func TestReadersWritersAndCheckpointsCrashRecover(t *testing.T) {
	const (
		rows    = 512
		writers = 2
		readers = 2
		span    = rows / writers // keys per writer, in pairs (k, k+1)
		runFor  = 2 * time.Second
	)
	cfg := engine.DefaultConfig()
	cfg.CachePages = 256
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every row starts equal, so "both halves of a pair are equal" holds
	// from the first read on.
	if err := eng.Load(rows, func(uint64) []byte { return []byte("init") }); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)

	var (
		wg                      sync.WaitGroup
		stop                    = make(chan struct{})
		errOnce                 sync.Once
		firstErr                error
		commits, loggedAborts   atomic.Int64
		readCommits, readAborts atomic.Int64
		ckptTaken               int64
		ckptErr                 error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// want[w] is writer w's own record of what it was told is durable:
	// the keys are private to it, so the last acknowledged commit per key
	// is the serial order.
	want := make([]map[uint64]string, writers)
	for w := 0; w < writers; w++ {
		want[w] = map[uint64]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := mgr.NewSession()
			for i := 0; !stopped(); i++ {
				k := uint64(w*span + (i*2)%span)
				tag := fmt.Sprintf("w%d-%07d", w, i)
				if err := sess.Begin(); err != nil {
					fail(err)
					return
				}
				var opErr error
				for _, key := range []uint64{k, k + 1} {
					if opErr = sess.Update(cfg.TableID, key, []byte(tag)); opErr != nil {
						break
					}
				}
				switch {
				case opErr != nil && !errors.Is(opErr, tc.ErrLockConflict):
					fail(opErr)
					return
				case opErr != nil || i%5 == 4:
					// A reader holds the key, or a deliberate abort.
					if sess.Txn().FirstLSN() != wal.NilLSN {
						loggedAborts.Add(1)
					}
					if err := sess.Abort(); err != nil {
						fail(err)
						return
					}
				default:
					if err := sess.Commit(); err != nil {
						fail(err)
						return
					}
					commits.Add(1)
					want[w][k], want[w][k+1] = tag, tag
				}
			}
		}(w)
	}
	// The checkpoint loop: every 500 µs until stopped, ending at its
	// first error.
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for !stopped() {
			<-tick.C
			if ckptErr = mgr.Checkpoint(); ckptErr != nil {
				return
			}
			ckptTaken++
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := mgr.NewSession()
			for i := 0; !stopped(); i++ {
				k := uint64((i*2*(r+3) + r*span) % rows) // even: a pair's first key
				if err := sess.Begin(); err != nil {
					fail(err)
					return
				}
				var pair [2]string
				var opErr error
				if i%4 == 3 {
					n := 0
					opErr = sess.ScanRange(cfg.TableID, k, k+1, nil, func(_ uint64, v []byte) error {
						pair[n] = string(v)
						n++
						return nil
					})
				} else {
					for j := range pair {
						var v []byte
						if v, _, opErr = sess.Read(cfg.TableID, k+uint64(j)); opErr != nil {
							break
						}
						pair[j] = string(v)
					}
				}
				switch {
				case errors.Is(opErr, tc.ErrLockConflict):
					if err := sess.Abort(); err != nil {
						fail(err)
						return
					}
					readAborts.Add(1)
					continue
				case opErr != nil:
					fail(opErr)
					return
				case pair[0] != pair[1]:
					fail(fmt.Errorf("reader %d saw half a transaction: key %d = %q, key %d = %q", r, k, pair[0], k+1, pair[1]))
					return
				}
				if err := sess.Commit(); err != nil {
					fail(err)
					return
				}
				readCommits.Add(1)
			}
		}(r)
	}
	time.Sleep(runFor)
	close(stop)
	wg.Wait()
	<-ckptDone
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if ckptErr != nil || ckptTaken == 0 {
		t.Fatalf("checkpoint loop: %d taken, error %v", ckptTaken, ckptErr)
	}
	t.Logf("%d commits, %d logged aborts, %d read-only commits, %d read-only aborts, %d checkpoints",
		commits.Load(), loggedAborts.Load(), readCommits.Load(), readAborts.Load(), ckptTaken)

	// The log heard from the writers only, and nobody is left announced.
	if got := eng.Log.AppendCount(wal.TypeCommit); got != commits.Load() {
		t.Errorf("%d commit records for %d writer commits (and %d read-only ones)", got, commits.Load(), readCommits.Load())
	}
	if got := eng.Log.AppendCount(wal.TypeAbort); got != loggedAborts.Load() {
		t.Errorf("%d abort records for %d aborts of transactions that had logged", got, loggedAborts.Load())
	}
	if st := eng.Stats(); st.WAL.Writers != 0 {
		t.Errorf("%d announced writers with every transaction ended", st.WAL.Writers)
	}
	if readCommits.Load() == 0 || commits.Load() == 0 {
		t.Fatal("a side of the test never committed")
	}

	// One writer and one reader stay open across a checkpoint and the
	// crash: the writer is the loser, the reader is nothing at all.
	loser, reader := mgr.NewSession(), mgr.NewSession()
	if err := loser.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update(cfg.TableID, 0, []byte("UNCOMMITTED")); err != nil {
		t.Fatal(err)
	}
	if err := reader.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reader.Read(cfg.TableID, 2); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.TC.SendEOSL()
	crash := eng.Crash()

	for _, m := range core.Methods() {
		rec, met, err := core.Recover(crash, m, core.DefaultOptions(cfg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if met.LosersUndone != 1 {
			t.Errorf("%v: %d losers undone, want the open writer only", m, met.LosersUndone)
		}
		got := map[uint64]string{}
		if err := rec.Set.ScanAll(func(k uint64, v []byte) error {
			got[k] = string(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != rows {
			t.Errorf("%v: recovered %d rows, want %d", m, len(got), rows)
		}
		for k := uint64(0); k < rows; k++ {
			w, ok := want[k/span][k]
			if !ok {
				w = "init"
			}
			if got[k] != w {
				t.Errorf("%v: key %d = %q, its writer was told %q is durable", m, k, got[k], w)
			}
		}
	}
}
