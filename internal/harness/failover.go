package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/replica"
	"logrec/internal/workload"
)

// FailoverConfig parameterises a kill-primary failover experiment: run
// the crash harness with a warm standby attached, promote the standby
// over the dead primary, and independently recover the same crash as
// the control.
type FailoverConfig struct {
	// Harness configures the primary's workload and crash condition
	// (OnLoaded is overwritten — the failover run owns it).
	Harness Config
	// Replica configures the shipping channel (segment size, lag bound,
	// fault injection via Mangle).
	Replica replica.Config
	// StandbyDir is the standby engine's directory when the harness
	// engine uses the file device (ignored for the simulated device).
	StandbyDir string
	// Method is the recovery algorithm for the control run over the
	// crashed primary (the paper's methods; Log2 is the flagship).
	Method core.Method
}

// FailoverResult is one completed failover experiment.
type FailoverResult struct {
	// Promoted is the standby after promotion, verified against the
	// oracle and serving.
	Promoted *engine.Engine
	// Recovered is the control: the crashed primary independently
	// recovered with FailoverConfig.Method, verified against the same
	// oracle.
	Recovered *engine.Engine
	// PromotedDigest and RecoveredDigest hash every row of each
	// engine's table; the experiment fails unless they are equal.
	PromotedDigest  uint64
	RecoveredDigest uint64
	// LagAtCrash is the standby's replay lag at the instant the primary
	// died.
	LagAtCrash replica.Lag
	// Ship snapshots the shipping counters after the final drain
	// (segments, heal events, applied records).
	Ship replica.Stats
	// LosersUndone is how many in-flight transactions the promotion
	// rolled back.
	LosersUndone int
	// PromoteWall is the wall-clock promotion time: final drain, undo
	// sweep and session open.
	PromoteWall time.Duration
	// Crash is the underlying crash build (oracle, characterisation).
	Crash *CrashResult
}

// StateDigest hashes every row of the engine's table in global key
// order: FNV-1a over big-endian key then value. Two engines with equal
// digests hold byte-identical logical state, whatever their page
// geometry.
func StateDigest(eng *engine.Engine) (uint64, error) {
	h := fnv.New64a()
	err := eng.Set.ScanAll(func(key uint64, val []byte) error {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], key)
		h.Write(kb[:])
		h.Write(val)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// RunFailover executes the kill-primary experiment: attach a warm
// standby of another geometry to a freshly loaded primary, drive the crash-harness workload
// (traffic, checkpoints, in-flight losers, optional torn tail) until
// the primary dies process-kill-shaped, promote the standby, and verify
// the promoted engine's rows against the oracle. As the control, the
// crashed primary is also recovered independently with cfg.Method and
// the two states must produce the same digest — the paper's §1.1 claim
// that the logical log stream fully determines the database state,
// demonstrated across two different consumers of the same log.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	gen, err := workload.NewGenerator(cfg.Harness.Workload)
	if err != nil {
		return nil, err
	}
	var standby *replica.Standby
	hcfg := cfg.Harness
	hcfg.OnLoaded = func(primary *engine.Engine) error {
		// The standby's geometry is not the primary's (§1.1: the log
		// names keys, never pages): one more shard, half the page size
		// and twice the pool.
		scfg := primary.Cfg
		scfg.Standby = true
		scfg.Shards = primary.Cfg.NumShards() + 1
		scfg.Disk.PageSize /= 2
		scfg.CachePages *= 2
		if scfg.Device == engine.DeviceFile {
			if cfg.StandbyDir == "" {
				return fmt.Errorf("file-device failover needs FailoverConfig.StandbyDir")
			}
			scfg.Dir = cfg.StandbyDir
		}
		standbyEng, err := engine.New(scfg)
		if err != nil {
			return err
		}
		if err := standbyEng.Load(cfg.Harness.Workload.Rows, gen.InitialValue); err != nil {
			return fmt.Errorf("standby load: %w", err)
		}
		standby, err = replica.New(primary.Log, standbyEng, cfg.Replica)
		if err != nil {
			return err
		}
		standby.Start()
		return nil
	}

	// Traffic, checkpoints, losers, crash — with shipping live underneath.
	res, err := BuildCrash(hcfg)
	if err != nil {
		return nil, err
	}
	out := &FailoverResult{Crash: res, LagAtCrash: standby.Lag()}

	// The primary is dead. Promote: drain the stable log it left behind,
	// roll back its in-flight losers, open for sessions.
	start := time.Now()
	promoted, met, err := standby.Promote()
	if err != nil {
		return nil, fmt.Errorf("harness: promote: %w", err)
	}
	out.PromoteWall = time.Since(start)
	out.Promoted = promoted
	out.Ship = standby.Stats()
	out.LosersUndone = met.LosersUndone
	if err := Verify(promoted, res.Oracle); err != nil {
		return nil, fmt.Errorf("harness: promoted standby has wrong state: %w", err)
	}

	// Control: recover the crashed primary independently and compare.
	recovered, _, err := core.Recover(res.Crash, cfg.Method, core.DefaultOptions(res.Crash.Cfg))
	if err != nil {
		return nil, fmt.Errorf("harness: control recovery: %w", err)
	}
	out.Recovered = recovered
	if err := Verify(recovered, res.Oracle); err != nil {
		return nil, fmt.Errorf("harness: %v control recovery has wrong state: %w", cfg.Method, err)
	}
	if out.PromotedDigest, err = StateDigest(promoted); err != nil {
		return nil, err
	}
	if out.RecoveredDigest, err = StateDigest(recovered); err != nil {
		return nil, err
	}
	if out.PromotedDigest != out.RecoveredDigest {
		return nil, fmt.Errorf("harness: promoted digest %016x != recovered digest %016x",
			out.PromotedDigest, out.RecoveredDigest)
	}
	return out, nil
}
