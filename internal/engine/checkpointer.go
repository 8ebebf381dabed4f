package engine

import (
	"fmt"
	"math"
	"sync"
	"time"

	"logrec/internal/tc"
	"logrec/internal/wal"
)

// CheckpointerStats counts daemon activity.
type CheckpointerStats struct {
	// Taken is the number of completed checkpoints.
	Taken int64
	// Skipped is the number of ticks that found the redo window within
	// the recovery budget, or no new traffic.
	Skipped int64
	// LastEstReplay is the most recent replay-time estimate for the
	// current redo window.
	LastEstReplay time.Duration
	// LastWindowBytes is the redo-window size behind that estimate:
	// log end minus the start of the window the next crash would replay.
	LastWindowBytes int64
	// ReplayRate is the effective bytes-per-second rate the estimate
	// used — the slower of the recovery-measured seed and the live
	// append-rate EWMA.
	ReplayRate float64
	// LastErr is the outcome of the most recent checkpoint attempt
	// (nil after a success, so a transient failure clears on recovery).
	LastErr error
}

// Checkpointer is the background checkpoint daemon that holds an
// engine to its Config.RecoveryBudget. When a checkpoint is due it runs
// the TC's penultimate checkpoint protocol (§3.2/§4.2) against the live
// engine — BeginCkpt into the WAL via the group committer, RSSP (the DC
// flushes every page dirtied before the begin record and logs the
// redo-scan-start-point), then EndCkpt and the master-record advance —
// while concurrent tc.Session traffic continues.
//
// Each tick measures the redo window a crash right now would replay
// (log end minus the window start captured at the last checkpoint),
// divides it by the effective replay rate, and checkpoints only when
// the estimated replay time exceeds the budget. A fast device or an
// idle engine therefore checkpoints rarely; a slow device or a hot
// append stream checkpoints exactly as often as the SLO demands.
type Checkpointer struct {
	mgr *tc.SessionManager
	log *wal.Log
	// budget is the engine's RecoveryBudget; every is the tick
	// (pollInterval); seed is the replay rate the engine's last
	// recovery measured (0 when it was never recovered).
	budget time.Duration
	every  time.Duration
	seed   float64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu sync.Mutex
	// lastRecs is the idle guard's baseline: trafficRecords sampled with
	// the last checkpoint's window start, before its begin record.
	lastRecs int64
	// windowStart approximates the redo-scan start a crash would use:
	// the log end captured just before the last successful checkpoint's
	// begin record (NilLSN until one has been taken, so the first
	// budget estimate charges the whole log — conservative).
	windowStart wal.LSN
	// lastEnd/lastSample/liveRate drive the live append-rate EWMA.
	lastEnd    wal.LSN
	lastSample time.Time
	liveRate   float64
	stats      CheckpointerStats
}

// StartCheckpointer launches the daemon over the engine's session
// manager; it fails when Config.RecoveryBudget is not set, the one
// value the daemon works to. Its replay-rate seed is the engine's
// LastRecovery, so a recovered engine budgets with the rate its own
// recovery achieved. Call Stop before crashing or discarding the
// engine.
func (e *Engine) StartCheckpointer(mgr *tc.SessionManager) (*Checkpointer, error) {
	c, err := e.newCheckpointer(mgr)
	if err != nil {
		return nil, err
	}
	go c.run()
	return c, nil
}

// newCheckpointer builds the daemon without starting its goroutine.
func (e *Engine) newCheckpointer(mgr *tc.SessionManager) (*Checkpointer, error) {
	if e.Cfg.RecoveryBudget <= 0 {
		return nil, fmt.Errorf("engine: the checkpointer needs Config.RecoveryBudget > 0")
	}
	c := &Checkpointer{
		mgr:    mgr,
		log:    e.Log,
		budget: e.Cfg.RecoveryBudget,
		every:  pollInterval(e.Cfg.RecoveryBudget),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if e.LastRecovery != nil {
		c.seed = e.LastRecovery.ReplayBytesPerSec
	}
	c.lastRecs = c.trafficRecords()
	return c, nil
}

// pollInterval is the daemon's tick for a recovery budget: a 25th of
// it, so the estimate is re-evaluated many times while a window grows
// through one budget, clamped so a tiny budget does not spin and a
// large one still notices a burst within 5 ms.
func pollInterval(budget time.Duration) time.Duration {
	return min(max(budget/25, 500*time.Microsecond), 5*time.Millisecond)
}

// trafficRecords counts the log records the checkpoint protocol did not
// write itself: everything but begin-checkpoint, end-checkpoint and RSSP
// records. It is what the "anything new since the last checkpoint?"
// comparisons run on, so a checkpoint's own records never make an idle
// engine look busy. ∆ and BW records are caused by traffic and count.
func (c *Checkpointer) trafficRecords() int64 {
	return c.log.Records() - c.log.AppendCount(wal.TypeBeginCkpt) -
		c.log.AppendCount(wal.TypeEndCkpt) - c.log.AppendCount(wal.TypeRSSP)
}

func (c *Checkpointer) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.every)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tick()
		}
	}
}

// tick takes one checkpoint if it is due: when the estimated replay
// time of the current redo window exceeds the recovery budget, or, until
// a replay rate exists, when any traffic was logged since the last one.
func (c *Checkpointer) tick() {
	now := time.Now()
	recs := c.trafficRecords()
	end := c.log.EndLSN()

	c.mu.Lock()
	// Live append-rate EWMA: how fast the redo window is growing. It
	// stands in for the replay rate when no recovery seeded one, and
	// caps an optimistic seed (replay cannot reliably outpace the
	// device feeding it under load).
	if !c.lastSample.IsZero() && end > c.lastEnd {
		if dt := now.Sub(c.lastSample).Seconds(); dt > 0 {
			sample := float64(end-c.lastEnd) / dt
			if c.liveRate == 0 {
				c.liveRate = sample
			} else {
				c.liveRate = 0.5*c.liveRate + 0.5*sample
			}
		}
	}
	c.lastSample = now
	c.lastEnd = end

	// recs > lastRecs guards the idle engine: a window holding nothing
	// but the last checkpoint's own records was already paid for by it.
	// With no rate measured yet (fresh engine, first appends still in
	// flight) that is the whole test, so the window cannot grow
	// unbounded before the EWMA warms.
	due := recs > c.lastRecs
	rate := c.effectiveRateLocked()
	window := int64(end - c.windowStart)
	c.stats.LastWindowBytes = window
	c.stats.ReplayRate = rate
	if rate > 0 {
		est := time.Duration(float64(window) / rate * float64(time.Second))
		c.stats.LastEstReplay = est
		due = due && est > c.budget
	}
	if !due {
		c.stats.Skipped++
	}
	c.mu.Unlock()
	if !due {
		return
	}
	c.checkpoint()
}

// effectiveRateLocked picks the replay rate the budget estimate uses:
// the slower of the recovery-measured seed and the live append EWMA
// when both exist. Conservative on purpose — underestimating the rate
// overestimates replay time and checkpoints early; the SLO is an upper
// bound, not a target to ride.
func (c *Checkpointer) effectiveRateLocked() float64 {
	seed := c.seed
	switch {
	case seed > 0 && c.liveRate > 0:
		return math.Min(seed, c.liveRate)
	case seed > 0:
		return seed
	default:
		return c.liveRate
	}
}

// checkpoint runs one checkpoint and updates the counters. The window
// start for the next estimate is the log end sampled just before the
// checkpoint begins — the begin-ckpt record lands at or after it, and
// the RSSP the next redo scan starts from is at or after that, so the
// estimate never undercounts the window. The idle guard's baseline is
// sampled with it: a record a session appends while the checkpoint runs
// is in the next window and must count as new, or traffic that stops
// right there would leave that window unchecked however far over budget
// it is.
func (c *Checkpointer) checkpoint() error {
	start := c.log.EndLSN()
	recs := c.trafficRecords()
	err := c.mgr.Checkpoint()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.LastErr = err
	if err == nil {
		c.stats.Taken++
		c.lastRecs = recs
		c.windowStart = start
	}
	return err
}

// CheckpointNow takes a checkpoint synchronously, whatever the replay
// estimate (tests; graceful shutdown).
func (c *Checkpointer) CheckpointNow() error {
	return c.checkpoint()
}

// Stop halts the daemon and waits for any in-flight checkpoint to
// finish. Idempotent: extra calls (e.g. an explicit Stop plus a
// deferred one) are no-ops.
func (c *Checkpointer) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Stats returns a copy of the daemon counters.
func (c *Checkpointer) Stats() CheckpointerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
