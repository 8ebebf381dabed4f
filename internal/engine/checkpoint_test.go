package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

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

// TestCheckpointsUnderConcurrentSessions checkpoints every 500 µs while
// session goroutines commit concurrently, then checks checkpoints
// actually landed in the live WAL and advanced the master record. Run
// under -race (make race) it is the checkpoint protocol's data-race
// oracle against live sessions.
func TestCheckpointsUnderConcurrentSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 512
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 4000
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-%08d", k))
	}); err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	stopCheckpoints := checkpointLoop(mgr)

	const clients, txns, ops = 8, 150, 3
	perClient := rows / clients
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := mgr.NewSession()
			base := uint64(c * perClient)
			for i := 0; i < txns; i++ {
				if err := sess.Begin(); err != nil {
					errs <- err
					return
				}
				for u := 0; u < ops; u++ {
					k := base + uint64((i*ops+u)%perClient)
					v := []byte(fmt.Sprintf("c%02d-t%05d-u%d", c, i, u))
					if err := sess.Update(cfg.TableID, k, v); err != nil {
						errs <- err
						return
					}
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
	taken, err := stopCheckpoints()
	if err != nil {
		t.Fatalf("checkpoint error: %v", err)
	}
	if taken == 0 {
		t.Fatal("no checkpoint taken under a sustained workload")
	}
	// Load() takes the initial checkpoint; the loop must have appended
	// more Begin/End pairs and at least one RSSP to the live WAL.
	if n := eng.Log.AppendCount(wal.TypeBeginCkpt); n < 2 {
		t.Errorf("BeginCkpt records = %d, want ≥ 2", n)
	}
	if n := eng.Log.AppendCount(wal.TypeEndCkpt); n < 2 {
		t.Errorf("EndCkpt records = %d, want ≥ 2", n)
	}
	if n := eng.Log.AppendCount(wal.TypeRSSP); n < 2 {
		t.Errorf("RSSP records = %d, want ≥ 2", n)
	}
	if eng.TC.LastEndCkptLSN() == wal.NilLSN {
		t.Error("master record never advanced")
	}
	if got := eng.TC.Stats().Checkpoints; got != taken+1 {
		t.Errorf("TC counted %d checkpoints, the loop took %d (+1 initial)", got, taken)
	}
}
