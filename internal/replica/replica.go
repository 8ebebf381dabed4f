// Package replica implements log shipping to a warm standby: the
// production form of the paper's §1.1 observation that the TC's
// logical log, carrying table and key but no PIDs, is a replication
// contract — any data component that consumes the same record stream
// converges to the same rows, even on physically different pages.
//
// A Shipper tails the primary WAL's stable prefix in segment-sized
// batches (wal.ShipReader, reading through the log device when one is
// attached); a Standby pumps those segments into a standby engine's
// log (wal.AppendStable validates every frame on ingest) and drives a
// core.Replayer, which re-executes every newly stable data operation by
// table and key through the standby's own trees, checkpointing the
// standby on a record cadence so its own restart is bounded. The
// standby may use its own page size, pool and shard count. Lag (bytes and records behind
// the primary's stable log) is observable at any time, and Promote
// performs the crash-promoted failover: drain shipment, roll back
// in-flight losers with recovery's undo sweep, and open the standby
// for sessions.
//
// The shipping channel is allowed to be hostile: segments may arrive
// duplicated, delayed, reordered or torn (Config.Mangle injects
// exactly these faults in tests), and the watermark protocol heals all
// of them — the applier's ingest position is authoritative, and the
// shipper resumes from it whenever they disagree.
package replica

import (
	"fmt"
	"sync"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/wal"
)

// Config tunes a Standby.
type Config struct {
	// SegmentBytes is the shipping batch size (default 64 KiB).
	SegmentBytes int
	// MaxLagBytes is the replay-lag bound (default 1 MiB): WaitLagBelow
	// and the harness backpressure loop hold traffic to it, and Lag
	// reports it for gating.
	MaxLagBytes int64
	// CheckpointEveryRecords takes a standby checkpoint every time this
	// many records have been applied since the last one (default 4096;
	// < 0 disables standby checkpoints).
	CheckpointEveryRecords int64
	// Mangle, when set, transforms each shipped segment into the slice
	// of segments actually delivered — the fault-injection hook.
	// Returning the segment unchanged ships cleanly; tests return
	// duplicates, delayed reorderings, torn prefixes or appended
	// garbage to exercise the healing protocol.
	Mangle func(seg wal.Segment) []wal.Segment
}

// pollEvery is how long the pump sleeps when it has caught up with the
// primary's stable log.
const pollEvery = 200 * time.Microsecond

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 10
	}
	if c.MaxLagBytes <= 0 {
		c.MaxLagBytes = 1 << 20
	}
	if c.CheckpointEveryRecords == 0 {
		c.CheckpointEveryRecords = 4096
	}
	return c
}

// Lag is how far the standby trails the primary's stable log.
type Lag struct {
	// Bytes is primary stable bytes not yet applied on the standby.
	Bytes int64
	// Records is primary stable records not yet applied.
	Records int64
}

// Stats is a point-in-time view of a Standby's progress.
type Stats struct {
	// ShippedBytes counts segment payload bytes offered to the standby
	// log (before dedup; a hostile channel re-sends).
	ShippedBytes int64
	// Segments counts shipped segments (after Mangle).
	Segments int64
	// HealEvents counts watermark resyncs — gaps, torn tails or
	// rejected frames the protocol recovered from.
	HealEvents int64
	// Replay is the replayer's counters (records, ops, applied).
	Replay core.ReplayStats
	// Lag is the lag at snapshot time.
	Lag Lag
}

// Standby couples a primary engine's log to a standby engine: a pump
// goroutine ships, ingests and replays continuously until Stop or
// Promote. The primary engine keeps running normally — shipping only
// reads its stable log. Create with New, start with Start.
type Standby struct {
	cfg     Config
	primary *wal.Log
	eng     *engine.Engine
	rp      *core.Replayer
	reader  *wal.ShipReader

	shippedBytes int64
	segments     int64
	healEvents   int64
	sinceCkpt    int64

	mu       sync.Mutex // guards the counters above and err
	err      error
	stop     chan struct{}
	stopOnce sync.Once
	stopped  chan struct{}
	started  bool
}

// New wires a standby engine to a primary's log. The standby engine
// must have been built with engine.Config.Standby and bulk-loaded with
// the same initial rows as the primary (the shipped stream replays
// everything after the load); its page size, pool and shard count are
// its own.
func New(primary *wal.Log, standby *engine.Engine, cfg Config) (*Standby, error) {
	cfg = cfg.withDefaults()
	if !standby.Cfg.Standby {
		return nil, fmt.Errorf("replica: standby engine must be built with engine.Config.Standby")
	}
	return &Standby{
		cfg:     cfg,
		primary: primary,
		eng:     standby,
		rp:      core.NewReplayer(standby),
		reader:  primary.NewShipReader(standby.Log.FlushedLSN()),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}, nil
}

// Start launches the pump goroutine. Call Stop or Promote exactly once
// afterwards.
func (s *Standby) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.pumpLoop()
}

func (s *Standby) pumpLoop() {
	defer close(s.stopped)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		progressed, err := s.PumpOnce()
		if err != nil {
			// A dead pump ships nothing more: give up its hold at once,
			// or it pins every primary segment from its watermark on.
			s.fail(err)
			s.reader.Close()
			return
		}
		if !progressed {
			select {
			case <-s.stop:
				return
			case <-time.After(pollEvery):
			}
		}
	}
}

// PumpOnce runs one shipping round: read the next stable segment from
// the primary, deliver it (through Mangle, if set) into the standby
// log, replay what became stable, and checkpoint on cadence. Returns
// whether any progress was made. Exposed so tests and the drain path
// can pump synchronously; never call it while the Start pump runs.
func (s *Standby) PumpOnce() (bool, error) {
	seg, ok, err := s.reader.Next(s.cfg.SegmentBytes)
	if err != nil {
		return false, fmt.Errorf("replica: shipping read: %w", err)
	}
	if !ok {
		return false, nil
	}
	delivered := []wal.Segment{seg}
	if s.cfg.Mangle != nil {
		delivered = s.cfg.Mangle(seg)
	}
	mark := seg.From
	healed := false
	for _, d := range delivered {
		var err error
		mark, err = s.eng.Log.AppendStable(d.From, d.Data)
		// Gaps, torn garbage, corrupt frames and short ingests (torn
		// transfers) all heal the same way: trust the applier's
		// watermark and re-ship from it.
		healed = healed || err != nil || mark < d.End()
		s.mu.Lock()
		s.segments++
		s.shippedBytes += int64(len(d.Data))
		s.mu.Unlock()
	}
	// A channel that drops a segment's tail on the floor delivers pieces
	// that each ingest whole; only the segment's own end shows it. The
	// next segment would gap and heal — but after the primary dies there
	// is no next segment.
	if healed || mark < seg.End() {
		s.mu.Lock()
		s.healEvents++
		s.mu.Unlock()
		s.reader.Resume(mark)
	}
	// What the standby log holds as complete, persisted frames the
	// primary no longer has to keep for this standby.
	s.reader.Ack(s.eng.Log.FlushedLSN())
	if err := s.rp.CatchUp(); err != nil {
		return true, err
	}
	if s.cfg.CheckpointEveryRecords > 0 {
		applied := s.rp.Stats().Records
		s.mu.Lock()
		due := applied-s.sinceCkpt >= s.cfg.CheckpointEveryRecords
		if due {
			s.sinceCkpt = applied
		}
		s.mu.Unlock()
		if due {
			if err := s.rp.Checkpoint(); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

func (s *Standby) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err returns the pump's sticky error, if it died. A pump that dies
// gives up its hold on the primary's log as it stops.
func (s *Standby) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Lag reports how far the standby trails the primary's stable log.
// Safe from any goroutine.
func (s *Standby) Lag() Lag {
	applied := s.rp.Stats().AppliedLSN
	stable := s.primary.FlushedLSN()
	var l Lag
	if stable > applied {
		l.Bytes = int64(stable - applied)
	}
	if d := s.primary.StableRecords() - s.rp.Stats().Records; d > 0 {
		l.Records = d
	}
	return l
}

// Stats snapshots the standby's counters.
func (s *Standby) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		ShippedBytes: s.shippedBytes,
		Segments:     s.segments,
		HealEvents:   s.healEvents,
	}
	s.mu.Unlock()
	st.Replay = s.rp.Stats()
	st.Lag = s.Lag()
	return st
}

// WaitCaughtUp blocks until the standby has applied everything stable
// on the primary, or the timeout expires.
func (s *Standby) WaitCaughtUp(timeout time.Duration) error {
	return s.waitLag(0, timeout)
}

// WaitLagBelow blocks until the lag is at most bytes, or the timeout
// expires. The harness backpressure loop calls it so sustained traffic
// cannot outrun the configured bound.
func (s *Standby) WaitLagBelow(bytes int64, timeout time.Duration) error {
	return s.waitLag(bytes, timeout)
}

func (s *Standby) waitLag(bytes int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := s.Err(); err != nil {
			return err
		}
		if s.Lag().Bytes <= bytes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica: lag %d bytes still above %d after %v", s.Lag().Bytes, bytes, timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Stop halts the pump without promoting and gives up the standby's
// hold on the primary's log, which is then free to release what was
// never shipped. Idempotent.
func (s *Standby) Stop() {
	s.halt()
	s.reader.Close()
}

// halt stops the pump goroutine; the hold on the primary's log stays.
func (s *Standby) halt() {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	if started {
		<-s.stopped
	}
}

// Promote fails over to the standby: stop the pump, drain every stable
// byte the (possibly dead) primary's log still holds — wal.ReadStable
// serves the stable prefix even after a crash froze the log — replay
// it, and run core.Replayer.Promote, which rolls back in-flight losers
// and opens the engine for sessions. Returns the promoted engine and
// the promotion metrics (LosersUndone, CLRsWritten).
func (s *Standby) Promote() (*engine.Engine, *core.Metrics, error) {
	s.halt()
	defer s.reader.Close()
	if err := s.Err(); err != nil {
		return nil, nil, fmt.Errorf("replica: promoting a dead standby: %w", err)
	}
	// Final drain: the pump is stopped, so PumpOnce is safe to call
	// synchronously. Mangle stays active — a hostile channel is hostile
	// to the last byte — and the healing protocol still converges
	// because the primary's stable prefix no longer moves.
	for {
		progressed, err := s.PumpOnce()
		if err != nil {
			return nil, nil, err
		}
		if !progressed {
			break
		}
	}
	if lag := s.Lag(); lag.Bytes != 0 {
		return nil, nil, fmt.Errorf("replica: %d bytes undrained at promote", lag.Bytes)
	}
	s.eng.Log.DropPartialTail()
	met, err := s.rp.Promote()
	if err != nil {
		return nil, nil, err
	}
	return s.eng, met, nil
}
