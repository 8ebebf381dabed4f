package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"logrec/internal/tc"
	"logrec/internal/wal"
)

// TestBudgetCheckpointerTriggersOnWindowGrowth runs the daemon with a
// deliberately slow seeded replay rate, so the estimated replay time of
// the growing redo window blows the budget over and over: the daemon
// must checkpoint on the replay estimate, land real checkpoint records
// in the WAL, and report the conservative rate it used.
func TestBudgetCheckpointerTriggersOnWindowGrowth(t *testing.T) {
	// 64 KiB/s replay against a multi-MiB/s append stream: a 16ms budget
	// tolerates a 1 KiB window — a few transactions, so nearly every
	// polled tick is over budget once traffic starts, yet several times
	// the ~170 bytes one checkpoint appends itself, which is the least
	// window any checkpoint can leave behind.
	const (
		seedRate = 64 << 10
		budget   = 16 * time.Millisecond
	)
	cfg := DefaultConfig()
	cfg.CachePages = 512
	cfg.RecoveryBudget = budget
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-%08d", k))
	}); err != nil {
		t.Fatal(err)
	}
	// Stand in for core.Recover: the replay rate the seed comes from.
	eng.LastRecovery = &RecoveryStats{Method: "Log1", ReplayBytesPerSec: seedRate}
	mgr := eng.NewSessionManager(0)
	ckpt, err := eng.StartCheckpointer(mgr)
	if err != nil {
		t.Fatal(err)
	}

	const clients, txns, ops = 4, 120, 3
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
					if err := sess.Update(cfg.TableID, k, []byte(fmt.Sprintf("c%02d-t%05d-u%d", c, i, u))); err != nil {
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
	// Traffic and daemon have both stopped; tick by hand. The first tick
	// may still find the tail of the traffic over budget and checkpoint
	// it, the second measures the window that is left.
	ckpt.tick()
	ckpt.tick()

	st := ckpt.Stats()
	if st.LastErr != nil {
		t.Fatalf("checkpointer error: %v", st.LastErr)
	}
	if st.Taken == 0 {
		t.Fatal("the daemon never checkpointed a window far past its replay budget")
	}
	if st.ReplayRate <= 0 || st.ReplayRate > seedRate {
		t.Errorf("ReplayRate = %v, want in (0, %d]: the effective rate is the slower of seed and live append EWMA", st.ReplayRate, seedRate)
	}
	// What the daemon leaves behind must replay within the budget by
	// its own model: the window it last measured over the rate it used.
	if est := float64(st.LastWindowBytes) / st.ReplayRate; st.LastWindowBytes < 0 || est > budget.Seconds() {
		t.Errorf("quiesced window of %d bytes at %.0f B/s is %.1fms of replay, over the %v budget",
			st.LastWindowBytes, st.ReplayRate, est*1e3, budget)
	}
	// The triggers produced real checkpoints: Load takes the initial
	// one; the daemon must have appended more protocol records.
	if n := eng.Log.AppendCount(wal.TypeRSSP); int64(n) < st.Taken {
		t.Errorf("RSSP records = %d, want >= %d checkpoints taken", n, st.Taken)
	}
	if eng.TC.LastEndCkptLSN() == wal.NilLSN {
		t.Error("master record never advanced")
	}
}

// TestBudgetCheckpointerIdleEngineQuiesces pins the idle guard: with a
// budget configured but no new log, estimated replay of the already
// checkpointed window never forces another checkpoint — the daemon
// must not grind an idle engine.
func TestBudgetCheckpointerIdleEngineQuiesces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 256
	cfg.RecoveryBudget = time.Nanosecond // absurdly tight: any growth would trigger
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(500, func(k uint64) []byte { return []byte("v") }); err != nil {
		t.Fatal(err)
	}
	// Absurdly slow: any window estimates huge.
	eng.LastRecovery = &RecoveryStats{Method: "Log1", ReplayBytesPerSec: 1}
	mgr := eng.NewSessionManager(0)
	ckpt, err := eng.StartCheckpointer(mgr)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	ckpt.Stop()
	st := ckpt.Stats()
	if st.Taken != 0 {
		t.Errorf("idle engine took %d checkpoints; the no-new-records guard must hold", st.Taken)
	}
	if st.Skipped == 0 {
		t.Error("daemon never ticked")
	}
}

// TestBudgetCheckpointerInheritsEngineSeed checks where the daemon's
// two inputs come from: the budget from the engine Config's
// RecoveryBudget and the replay rate from LastRecovery, so a recovered
// engine gets SLO-driven checkpointing without any per-daemon
// configuration.
func TestBudgetCheckpointerInheritsEngineSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CachePages = 256
	cfg.RecoveryBudget = 2 * time.Millisecond
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 800
	if err := eng.Load(rows, func(k uint64) []byte {
		return []byte(fmt.Sprintf("initial-%08d", k))
	}); err != nil {
		t.Fatal(err)
	}
	// Stand in for core.Recover: a measured replay rate from the run
	// that produced this engine.
	eng.LastRecovery = &RecoveryStats{Method: "Log1", ReplayBytesPerSec: 64 << 10}

	mgr := eng.NewSessionManager(0)
	ckpt, err := eng.StartCheckpointer(mgr)
	if err != nil {
		t.Fatal(err)
	}
	sess := mgr.NewSession()
	// At least 300 transactions, and then for as long as it takes the
	// daemon's 500 µs tick to see a window over budget: how many
	// transactions fit between two ticks is the machine's business.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 300 || (ckpt.Stats().Taken == 0 && time.Now().Before(deadline)); i++ {
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 3; u++ {
			k := uint64((i*3 + u) % rows)
			if err := sess.Update(cfg.TableID, k, []byte(fmt.Sprintf("t%05d-u%d", i, u))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ckpt.Stop()
	st := ckpt.Stats()
	if st.LastErr != nil {
		t.Fatalf("checkpointer error: %v", st.LastErr)
	}
	if st.Taken == 0 {
		t.Fatal("daemon ignored the engine-level RecoveryBudget/LastRecovery seed")
	}
	if st.ReplayRate <= 0 || st.ReplayRate > 64<<10 {
		t.Errorf("ReplayRate = %v, want in (0, %d]: the LastRecovery seed caps it", st.ReplayRate, 64<<10)
	}
	// Stats() surfaces the recovery summary the seed came from.
	if got := eng.Stats().Recovery; got == nil || got.Method != "Log1" {
		t.Errorf("Stats().Recovery = %+v, want the engine's LastRecovery", got)
	}
}

// TestBudgetCheckpointerCountsCommitsLandingMidCheckpoint pins the idle
// guard's baseline to the window start. N sessions hold one applied
// update each and all commit while a checkpoint is still running (from
// the master hook: the end record is forced, every plane is still held,
// commits need none), then traffic stops. Those N commit records sit in
// the window the next crash replays, far over budget, and are the only
// new log there is: a baseline sampled after the checkpoint has absorbed
// them and every later tick skips. No daemon goroutine, no clock: the
// rate is the seed (the first tick has no live sample yet) and the ticks
// are driven by hand.
func TestBudgetCheckpointerCountsCommitsLandingMidCheckpoint(t *testing.T) {
	// 64 KiB/s over 8ms tolerates a 512-byte window; 100 commit records
	// and the checkpoint's own are some 800 bytes.
	const budget = 8 * time.Millisecond
	cfg := DefaultConfig()
	cfg.CachePages = 256
	cfg.RecoveryBudget = budget
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 100
	if err := eng.Load(sessions, func(k uint64) []byte { return []byte("v") }); err != nil {
		t.Fatal(err)
	}
	eng.LastRecovery = &RecoveryStats{Method: "Log1", ReplayBytesPerSec: 64 << 10}
	mgr := eng.NewSessionManager(0)
	ckpt, err := eng.newCheckpointer(mgr)
	if err != nil {
		t.Fatal(err)
	}

	open := make([]*tc.Session, sessions)
	for i := range open {
		open[i] = mgr.NewSession()
		if err := open[i].Begin(); err != nil {
			t.Fatal(err)
		}
		if err := open[i].Update(cfg.TableID, uint64(i), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	eng.TC.SetMasterHook(func(wal.LSN) error {
		for _, s := range open {
			if err := s.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	if err := ckpt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	eng.TC.SetMasterHook(nil)
	if st := eng.TC.Stats(); st.Begun != st.Committed+st.Aborted {
		t.Fatalf("%d transactions still active: the hook did not commit them", st.Begun-st.Committed-st.Aborted)
	}

	ckpt.tick()
	st := ckpt.Stats()
	if st.LastEstReplay <= budget {
		t.Fatalf("window of %d bytes estimates %v, within the %v budget: the test needs it over", st.LastWindowBytes, st.LastEstReplay, budget)
	}
	if st.Taken != 2 {
		t.Fatalf("%d commits landed inside the last checkpoint and the next tick left them: Taken %d, Skipped %d over a %d-byte window estimated at %v (budget %v)",
			sessions, st.Taken, st.Skipped, st.LastWindowBytes, st.LastEstReplay, budget)
	}
	// Nothing but that checkpoint's own records is new now.
	ckpt.tick()
	if st := ckpt.Stats(); st.Taken != 2 || st.Skipped != 1 {
		t.Errorf("idle after the catch-up checkpoint: Taken %d, Skipped %d; want 2 and 1", st.Taken, st.Skipped)
	}
}
