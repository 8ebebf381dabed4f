// Package harness runs the paper's controlled crash-recovery
// experiments (§5.2): drive an update workload to cache equilibrium
// with periodic checkpoints, crash at the paper's crash condition
// (k checkpoints taken, N updates since the last checkpoint, ~100
// records in the log tail past the last ∆/BW record), then replay the
// identical crash under each recovery method, verifying that every
// method reproduces the committed state exactly.
package harness

import (
	"fmt"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/wal"
	"logrec/internal/workload"
)

// Config parameterises one crash build.
type Config struct {
	// Engine configures the engine under test (disk model, cache, DC).
	Engine engine.Config
	// Workload configures the committed update traffic.
	Workload workload.Config

	// CheckpointEveryUpdates is the checkpoint interval in update
	// operations (the paper's SQL Server default interval, swept ×5
	// and ×10 in Appendix C).
	CheckpointEveryUpdates int
	// CrashAfterCheckpoints is how many checkpoints complete before
	// the crash window opens (the paper uses 10).
	CrashAfterCheckpoints int
	// UpdatesAfterLastCkpt is how many updates must accumulate after
	// the final checkpoint before the crash (the redone log length;
	// the paper uses ~40000 at full scale).
	UpdatesAfterLastCkpt int
	// TailTargetUpdates is how many updates must follow the last
	// ∆/BW record pair at the crash (the paper uses ~100).
	TailTargetUpdates int
	// LeaveOpenTxn leaves one uncommitted transaction in flight at the
	// crash so undo has work to do.
	LeaveOpenTxn bool
	// OpenTxns leaves this many uncommitted transactions in flight at
	// the crash (0 falls back to LeaveOpenTxn's single loser). Each
	// loser updates keys strided across the table so their pages
	// spread.
	OpenTxns int
	// OpenTxnUpdates is how many updates each loser makes (0 uses
	// Workload.UpdatesPerTxn).
	OpenTxnUpdates int
	// EarlyLosers runs the losers' updates before the committed
	// traffic instead of at the crash: long-running transactions whose
	// pages the later redo traffic evicts, so the undo pass has real
	// IO to do — the undo worker sweep's workload. The committed
	// workload steers around the losers' keys (they stay X-locked).
	EarlyLosers bool
	// TornTailBytes, when positive, tears the crashed WAL with that
	// many bytes of a partial record frame — the crash interrupted a
	// log force mid-frame. Recovery must trim the torn tail via the
	// codec's ErrTruncated path (wal.OpenLogDir on the file device,
	// Log.CloneTrimmed on the simulated one). 0 leaves the WAL ending
	// on a record boundary.
	TornTailBytes int
	// OnLoaded, when set, runs after the engine is loaded and has taken
	// its initial checkpoint, before any traffic. The failover harness
	// uses it to attach a warm standby to the live primary so shipping
	// runs concurrently with the workload.
	OnLoaded func(*engine.Engine) error
}

// DefaultConfig returns the paper-proportional experiment at the
// repository's default scale (ARCHITECTURE "Deviations from the paper",
// Scale):
// a ~10,000-page table (400k rows on 4 KB pages, index ≈0.4% of data as
// in the paper), checkpoint every 1,000 updates, crash after 10
// checkpoints + 1,000 updates with a ~25-record tail. Every ratio the
// paper's results depend on — updates-per-interval/DB-pages,
// distinct-dirtied/cache across the sweep, index/data size — matches
// the paper's setup.
func DefaultConfig() Config {
	e := engine.DefaultConfig()
	w := workload.DefaultConfig()
	return Config{
		Engine:                 e,
		Workload:               w,
		CheckpointEveryUpdates: 1000,
		CrashAfterCheckpoints:  10,
		UpdatesAfterLastCkpt:   1000,
		TailTargetUpdates:      25,
		LeaveOpenTxn:           true,
	}
}

// Scaled shrinks the experiment by factor k (rows, checkpoint interval
// and cache scale together so every ratio the paper depends on is
// preserved). Use for quick tests and CI.
func (c Config) Scaled(k int) Config {
	if k <= 1 {
		return c
	}
	out := c
	out.Workload.Rows = c.Workload.Rows / k
	out.CheckpointEveryUpdates = c.CheckpointEveryUpdates / k
	out.UpdatesAfterLastCkpt = c.UpdatesAfterLastCkpt / k
	out.Engine.CachePages = c.Engine.CachePages / k
	if out.TailTargetUpdates > out.UpdatesAfterLastCkpt/4 {
		out.TailTargetUpdates = out.UpdatesAfterLastCkpt / 4
	}
	return out
}

// WithCacheFraction sets the buffer pool to frac of the table's data
// pages (the x-axis of Figure 2).
func (c Config) WithCacheFraction(frac float64) Config {
	out := c
	out.Engine.CachePages = int(frac * float64(c.DataPages()))
	if out.Engine.CachePages < 64 {
		out.Engine.CachePages = 64
	}
	return out
}

// DataPages estimates the table's leaf page count at load fill.
func (c Config) DataPages() int {
	perPage := (c.Engine.Disk.PageSize - 24) / (8 + c.Workload.ValueSize + 4)
	if perPage < 1 {
		perPage = 1
	}
	return (c.Workload.Rows + perPage - 1) / perPage
}

// CrashResult is a built crash plus everything needed to verify and
// characterise recovery runs against it.
type CrashResult struct {
	Crash  *engine.CrashState
	Oracle map[uint64][]byte

	// Characterisation at the instant of the crash.
	DirtyAtCrash   int
	CachePages     int
	DataPages      int
	UpdatesRun     int64
	TxnsCommitted  int64
	DeltasWritten  int64
	BWsWritten     int64 // BW intervals: BW records and ∆ records marked as one
	CheckpointsRun int64
	LogBytes       int64
	LosersAtCrash  int
}

// DirtyPct is the dirty fraction of the cache at the crash — Figure
// 2(b)'s y-axis.
func (r *CrashResult) DirtyPct() float64 {
	if r.CachePages == 0 {
		return 0
	}
	return 100 * float64(r.DirtyAtCrash) / float64(r.CachePages)
}

// BuildCrash runs the workload to the crash condition and freezes the
// crash state.
func BuildCrash(cfg Config) (*CrashResult, error) {
	gen, err := workload.NewGenerator(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Engine.NumShards() > 1 && cfg.Engine.KeySpan == 0 {
		// Balance the initial ranges over the loaded table.
		cfg.Engine.KeySpan = uint64(cfg.Workload.Rows)
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	oracle := make(map[uint64][]byte, cfg.Workload.Rows)
	if err := eng.Load(cfg.Workload.Rows, func(k uint64) []byte {
		v := gen.InitialValue(k)
		oracle[k] = v
		return v
	}); err != nil {
		return nil, fmt.Errorf("harness: load: %w", err)
	}
	if cfg.OnLoaded != nil {
		if err := cfg.OnLoaded(eng); err != nil {
			return nil, fmt.Errorf("harness: OnLoaded: %w", err)
		}
	}

	openTxns := cfg.OpenTxns
	if openTxns == 0 && cfg.LeaveOpenTxn {
		openTxns = 1
	}
	perLoser := cfg.OpenTxnUpdates
	if perLoser == 0 {
		perLoser = cfg.Workload.UpdatesPerTxn
	}
	// Losers take keys strided across the table; the committed traffic
	// steers around them (they stay exclusively locked until the crash).
	stride := uint64(cfg.Workload.Rows/(openTxns*perLoser+1)) + 1
	nextLoserKey := uint64(0)
	reserved := make(map[uint64]bool, openTxns*perLoser)
	runLoser := func() error {
		txn := eng.TC.Begin()
		for u := 0; u < perLoser; u++ {
			if nextLoserKey >= uint64(cfg.Workload.Rows) {
				return fmt.Errorf("harness: %d losers × %d updates do not fit %d rows",
					openTxns, perLoser, cfg.Workload.Rows)
			}
			k := nextLoserKey
			nextLoserKey += stride
			reserved[k] = true
			if err := eng.TC.Update(txn, cfg.Engine.TableID, k, []byte(makeGarbage(cfg.Workload.ValueSize))); err != nil {
				return fmt.Errorf("harness: loser update key %d: %w", k, err)
			}
		}
		// The transaction stays open: recovery must undo it.
		return nil
	}
	if cfg.EarlyLosers {
		for i := 0; i < openTxns; i++ {
			if err := runLoser(); err != nil {
				return nil, err
			}
		}
	}

	var (
		updates          int64
		updatesSinceCkpt int
		ckpts            int
		updatesSinceTail int
		lastDeltaCount   = eng.Log.AppendCount(wal.TypeDelta)
		// crashWindow counts updates spent waiting for the tail
		// condition once the checkpoint conditions hold; if ∆ records
		// come faster than the tail target, we crash anyway after one
		// extra interval rather than spinning forever.
		crashWindow int
	)

	// Run committed transactions until the crash condition is met:
	// enough checkpoints, enough updates since the last one, and a
	// fresh-enough ∆ record that the tail is near the target length.
	for {
		txn := eng.TC.Begin()
		staged := make(map[uint64][]byte, cfg.Workload.UpdatesPerTxn)
		for u := 0; u < cfg.Workload.UpdatesPerTxn; u++ {
			op := gen.NextOp()
			// Steer off keys the early losers hold exclusively locked.
			key := op.Key
			for reserved[key] {
				key = (key + 1) % uint64(cfg.Workload.Rows)
			}
			if op.Kind == workload.OpRead {
				if _, _, err := eng.TC.Read(txn, cfg.Engine.TableID, key); err != nil {
					return nil, fmt.Errorf("harness: read: %w", err)
				}
				continue
			}
			v := gen.UpdateValue(key)
			if err := eng.TC.Update(txn, cfg.Engine.TableID, key, v); err != nil {
				return nil, fmt.Errorf("harness: update key %d: %w", key, err)
			}
			staged[key] = v
			updates++
			updatesSinceCkpt++
			updatesSinceTail++
		}
		if err := eng.TC.Commit(txn); err != nil {
			return nil, fmt.Errorf("harness: commit: %w", err)
		}
		for k, v := range staged {
			oracle[k] = v
		}

		// Track ∆-record recency for the tail condition.
		if dc := eng.Log.AppendCount(wal.TypeDelta); dc != lastDeltaCount {
			lastDeltaCount = dc
			updatesSinceTail = 0
		}

		if updatesSinceCkpt >= cfg.CheckpointEveryUpdates && ckpts < cfg.CrashAfterCheckpoints {
			if err := eng.TC.Checkpoint(); err != nil {
				return nil, fmt.Errorf("harness: checkpoint: %w", err)
			}
			ckpts++
			updatesSinceCkpt = 0
		}

		if ckpts >= cfg.CrashAfterCheckpoints && updatesSinceCkpt >= cfg.UpdatesAfterLastCkpt {
			crashWindow += cfg.Workload.UpdatesPerTxn
			if updatesSinceTail >= cfg.TailTargetUpdates || crashWindow > cfg.UpdatesAfterLastCkpt {
				break
			}
		}
	}

	if !cfg.EarlyLosers {
		for i := 0; i < openTxns; i++ {
			if err := runLoser(); err != nil {
				return nil, err
			}
		}
	}
	if openTxns > 0 {
		// Force the log so the losers' records survive; the txns never
		// commit.
		eng.TC.SendEOSL()
	}

	res := &CrashResult{
		Oracle:         oracle,
		DirtyAtCrash:   eng.Set.DirtyCount(),
		CachePages:     cfg.Engine.CachePages,
		DataPages:      cfg.DataPages(),
		UpdatesRun:     updates,
		TxnsCommitted:  eng.Stats().TC.Committed,
		DeltasWritten:  eng.Log.AppendCount(wal.TypeDelta),
		BWsWritten:     bwIntervals(eng),
		CheckpointsRun: int64(ckpts),
		LogBytes:       int64(eng.Log.EndLSN()),
		LosersAtCrash:  openTxns,
	}
	res.Crash = eng.Crash()
	if cfg.TornTailBytes > 0 {
		if err := res.Crash.TearTail(cfg.TornTailBytes); err != nil {
			return nil, fmt.Errorf("harness: tearing WAL tail: %w", err)
		}
	}
	return res, nil
}

// bwIntervals counts the BW intervals every shard's tracker closed:
// standalone BW records and the ∆ records that stand in for one.
func bwIntervals(eng *engine.Engine) int64 {
	var n int64
	for _, d := range eng.DCs {
		n += d.Recorder().Stats().BWIntervals()
	}
	return n
}

func makeGarbage(size int) string {
	b := make([]byte, size)
	for i := range b {
		b[i] = 'Z'
	}
	return string(b)
}

// RunRecovery recovers the crash under method m and verifies the
// result against the oracle before returning the metrics.
func RunRecovery(res *CrashResult, m core.Method, opt core.Options) (*core.Metrics, error) {
	eng, met, err := core.Recover(res.Crash, m, opt)
	if err != nil {
		return nil, err
	}
	if err := Verify(eng, res.Oracle); err != nil {
		return nil, fmt.Errorf("harness: %v produced wrong state: %w", m, err)
	}
	return met, nil
}

// Verify checks that the engine's table contents — across every shard,
// in global key order — equal the oracle.
func Verify(eng *engine.Engine, oracle map[uint64][]byte) error {
	count := 0
	err := eng.Set.ScanAll(func(k uint64, v []byte) error {
		want, ok := oracle[k]
		if !ok {
			return fmt.Errorf("unexpected key %d", k)
		}
		if string(v) != string(want) {
			return fmt.Errorf("key %d: got %q, want %q", k, v, want)
		}
		count++
		return nil
	})
	if err != nil {
		return err
	}
	if count != len(oracle) {
		return fmt.Errorf("recovered %d rows, oracle has %d", count, len(oracle))
	}
	return nil
}

// RunAll recovers the same crash under every method.
func RunAll(res *CrashResult, opt core.Options) (map[core.Method]*core.Metrics, error) {
	out := make(map[core.Method]*core.Metrics, 5)
	for _, m := range core.Methods() {
		met, err := RunRecovery(res, m, opt)
		if err != nil {
			return nil, err
		}
		out[m] = met
	}
	return out, nil
}
