package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"logrec/internal/wal"
)

// TestCheckpointDaemonUnderConcurrentSessions runs the checkpoint
// daemon at an aggressive cadence while session goroutines commit
// concurrently, then checks checkpoints actually landed in the live
// WAL and advanced the master record. A 1 ns budget makes every tick
// that saw new traffic checkpoint, every 500 µs. Run under -race this
// doubles as the daemon's data-race oracle.
func TestCheckpointDaemonUnderConcurrentSessions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 512
	cfg.RecoveryBudget = time.Nanosecond
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
	ckpt, err := eng.StartCheckpointer(mgr)
	if err != nil {
		t.Fatal(err)
	}

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
	ckpt.Stop()

	st := ckpt.Stats()
	if st.LastErr != nil {
		t.Fatalf("checkpointer error: %v", st.LastErr)
	}
	if st.Taken == 0 {
		t.Fatal("daemon took no checkpoints under a sustained workload")
	}
	// Load() takes the initial checkpoint; the daemon must have appended
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
	if got := eng.TC.Stats().Checkpoints; got != st.Taken+1 {
		t.Errorf("TC counted %d checkpoints, daemon took %d (+1 initial)", got, st.Taken)
	}
}

// TestCheckpointerCadenceFromBudget pins the one rule the daemon takes
// from its budget besides the budget itself: it polls at a 25th of the
// budget, clamped to [500 µs, 5 ms]. An engine without a budget has
// nothing for the daemon to hold, and StartCheckpointer says so.
func TestCheckpointerCadenceFromBudget(t *testing.T) {
	eng, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := eng.NewSessionManager(0)
	if ckpt, err := eng.StartCheckpointer(mgr); err == nil {
		ckpt.Stop()
		t.Fatal("StartCheckpointer started a daemon on an engine with no RecoveryBudget")
	}
	for _, c := range []struct{ budget, every time.Duration }{
		{time.Nanosecond, 500 * time.Microsecond},
		{75 * time.Millisecond, 3 * time.Millisecond},
		{time.Second, 5 * time.Millisecond},
	} {
		eng.Cfg.RecoveryBudget = c.budget
		ckpt, err := eng.newCheckpointer(mgr)
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.every != c.every {
			t.Errorf("budget %v polls every %v, want %v", c.budget, ckpt.every, c.every)
		}
	}
}
