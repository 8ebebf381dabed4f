package engine

import (
	"math"
	"sync"
	"time"

	"logrec/internal/tc"
	"logrec/internal/wal"
)

// CheckpointerConfig tunes the background checkpoint daemon.
type CheckpointerConfig struct {
	// Interval is the wall-clock cadence between checkpoint attempts.
	// In budget mode it is the polling cadence at which the replay
	// estimate is re-evaluated, not the checkpoint rate.
	Interval time.Duration
	// MinRecords skips a tick when fewer than this many log records
	// were appended since the last checkpoint — an idle engine should
	// not grind out empty checkpoints. Budget mode falls back to this
	// threshold only until a replay rate has been measured.
	MinRecords int64
	// RecoveryBudget switches the daemon into budget mode: instead of
	// checkpointing on every due interval, it estimates how long
	// replaying the current redo window would take (window bytes ÷ the
	// effective replay rate) and checkpoints when the estimate exceeds
	// the budget — "recover in under X" as a config knob. Zero keeps
	// the interval-driven behavior. StartCheckpointer defaults it from
	// engine Config.RecoveryBudget.
	RecoveryBudget time.Duration
	// ReplayBytesPerSec seeds the replay-rate estimate (bytes of log
	// replayed per wall-clock second). StartCheckpointer defaults it
	// from the engine's LastRecovery, so a recovered engine budgets
	// with the rate its own recovery actually achieved. The daemon
	// refines the estimate with a live append-rate EWMA and uses the
	// slower of the two — conservative: a pessimistic rate means
	// earlier checkpoints, never a blown budget.
	ReplayBytesPerSec float64
}

// DefaultCheckpointerConfig checkpoints every 100ms provided at least
// 256 records of new log exist — frequent enough that the redo scan
// stays short under a steady session workload, cheap enough to be
// invisible when idle.
func DefaultCheckpointerConfig() CheckpointerConfig {
	return CheckpointerConfig{Interval: 100 * time.Millisecond, MinRecords: 256}
}

// CheckpointerStats counts daemon activity.
type CheckpointerStats struct {
	// Taken is the number of completed checkpoints.
	Taken int64
	// Skipped is the number of ticks below the MinRecords threshold
	// (interval mode) or under the replay budget (budget mode).
	Skipped int64
	// BudgetTriggers is the number of checkpoints taken because the
	// estimated replay time of the redo window exceeded RecoveryBudget
	// (a subset of Taken; zero outside budget mode).
	BudgetTriggers int64
	// LastEstReplay is the most recent replay-time estimate for the
	// current redo window (budget mode only).
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

// Checkpointer is the background checkpoint daemon: on a timer it runs
// the TC's penultimate checkpoint protocol (§3.2/§4.2) against the live
// engine — BeginCkpt into the WAL via the group committer, RSSP (the DC
// flushes every page dirtied before the begin record and logs the
// redo-scan-start-point), then EndCkpt and the master-record advance —
// so the redo scan a crash would need stays bounded while concurrent
// tc.Session traffic continues.
//
// With RecoveryBudget set the daemon is replay-rate-driven: each tick
// it measures the redo window a crash right now would replay (log end
// minus the window start captured at the last checkpoint), divides by
// the effective replay rate, and checkpoints only when the estimated
// replay time would exceed the budget. A fast device or an idle engine
// therefore checkpoints rarely; a slow device or a hot append stream
// checkpoints exactly as often as the SLO demands.
type Checkpointer struct {
	mgr *tc.SessionManager
	log *wal.Log
	cfg CheckpointerConfig

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
// manager. Call Stop before crashing or discarding the engine.
// Non-positive config fields take their defaults; pass MinRecords 1 to
// checkpoint on every tick that saw any new log at all. A zero
// RecoveryBudget inherits the engine Config's, and a zero
// ReplayBytesPerSec seeds from the engine's LastRecovery — so a
// recovered engine with Config.RecoveryBudget set gets SLO-driven
// checkpointing with measured rates by default.
func (e *Engine) StartCheckpointer(mgr *tc.SessionManager, cfg CheckpointerConfig) *Checkpointer {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultCheckpointerConfig().Interval
	}
	if cfg.MinRecords <= 0 {
		cfg.MinRecords = DefaultCheckpointerConfig().MinRecords
	}
	if cfg.RecoveryBudget <= 0 {
		cfg.RecoveryBudget = e.Cfg.RecoveryBudget
	}
	if cfg.ReplayBytesPerSec <= 0 && e.LastRecovery != nil {
		cfg.ReplayBytesPerSec = e.LastRecovery.ReplayBytesPerSec
	}
	c := &Checkpointer{
		mgr:  mgr,
		log:  e.Log,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.lastRecs = c.trafficRecords()
	go c.run()
	return c
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
	ticker := time.NewTicker(c.cfg.Interval)
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

// tick takes one checkpoint if it is due: in interval mode when enough
// log has accumulated, in budget mode when the estimated replay time of
// the current redo window exceeds the recovery budget.
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

	var due, budgetDue bool
	if c.cfg.RecoveryBudget > 0 {
		rate := c.effectiveRateLocked()
		window := int64(end - c.windowStart)
		c.stats.LastWindowBytes = window
		c.stats.ReplayRate = rate
		if rate > 0 {
			est := time.Duration(float64(window) / rate * float64(time.Second))
			c.stats.LastEstReplay = est
			// recs > lastRecs guards the idle engine: a window holding
			// nothing but the last checkpoint's own records was already
			// paid for by it.
			budgetDue = est > c.cfg.RecoveryBudget && recs > c.lastRecs
			due = budgetDue
		} else {
			// No rate measured yet (fresh engine, first appends still
			// in flight): fall back to the record-count threshold so
			// the window cannot grow unbounded before the EWMA warms.
			due = recs-c.lastRecs >= c.cfg.MinRecords
		}
	} else {
		due = recs-c.lastRecs >= c.cfg.MinRecords
	}
	if !due {
		c.stats.Skipped++
	}
	c.mu.Unlock()
	if !due {
		return
	}
	c.checkpoint(budgetDue)
}

// effectiveRateLocked picks the replay rate the budget estimate uses:
// the slower of the recovery-measured seed and the live append EWMA
// when both exist. Conservative on purpose — underestimating the rate
// overestimates replay time and checkpoints early; the SLO is an upper
// bound, not a target to ride.
func (c *Checkpointer) effectiveRateLocked() float64 {
	seed := c.cfg.ReplayBytesPerSec
	switch {
	case seed > 0 && c.liveRate > 0:
		return math.Min(seed, c.liveRate)
	case seed > 0:
		return seed
	default:
		return c.liveRate
	}
}

// checkpoint runs one checkpoint and updates the counters; budget marks
// it as triggered by the replay estimate. The window start for the next
// estimate is the log end sampled just before the checkpoint begins —
// the begin-ckpt record lands at or after it, and the RSSP the next
// redo scan starts from is at or after that, so the estimate never
// undercounts the window. The idle guard's baseline is sampled with it:
// a record a session appends while the checkpoint runs is in the next
// window and must count as new, or traffic that stops right there would
// leave that window unchecked however far over budget it is.
func (c *Checkpointer) checkpoint(budget bool) error {
	start := c.log.EndLSN()
	recs := c.trafficRecords()
	err := c.mgr.Checkpoint()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.LastErr = err
	if err == nil {
		c.stats.Taken++
		if budget {
			c.stats.BudgetTriggers++
		}
		c.lastRecs = recs
		c.windowStart = start
	}
	return err
}

// CheckpointNow takes a checkpoint synchronously, regardless of the
// MinRecords threshold or the replay budget (tests; graceful shutdown).
func (c *Checkpointer) CheckpointNow() error {
	return c.checkpoint(false)
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
