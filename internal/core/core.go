// Package core implements the paper's contribution: crash recovery for
// a logically-logged (TC/DC) engine, optimised to be performance
// competitive with physiological ARIES/SQL-Server recovery, plus that
// physiological recovery itself for the side-by-side comparison — both
// driven by the same log (§5.1).
//
// Five methods reproduce §5.2's experimental matrix:
//
//	Log0 — basic logical redo (Algorithm 2): every redone operation
//	       re-traverses the B-tree and fetches its page.
//	Log1 — logical redo with the DPT built from ∆-log records
//	       (Algorithms 4 and 5), no prefetch.
//	Log2 — Log1 plus index preloading and PF-list page prefetch
//	       (§4.4, Appendix A).
//	SQL1 — physiological redo with the DPT built by the analysis pass
//	       from log-record PIDs and BW records (Algorithms 3 and 1).
//	SQL2 — SQL1 plus log-driven read-ahead prefetch (Appendix A.2).
//
// All methods share the same undo pass (logical, with CLRs), the same
// SMO recovery, and the same log — only redo differs, per §2.1.
//
// The engine may shard its data across N range-partitioned DCs behind
// the one TC (engine.Config.Shards). Recovery demultiplexes the single
// log by each record's shard ID into per-shard pipelines that run
// concurrently — each shard an independent instance of the same
// prep/redo machinery over its own device, pool and B-tree, with SMO
// barriers naturally shard-local — while undo stays a single merged
// backward sweep whose compensations route to the owning shard. The
// single-DC engine is the N=1 case of the same code: one pipeline, fed
// by the same demultiplexer.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"logrec/internal/dc"
	"logrec/internal/dpt"
	"logrec/internal/engine"
	"logrec/internal/shard"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// Method selects a recovery algorithm.
type Method int

// Recovery methods (§5.2).
const (
	Log0 Method = iota
	Log1
	Log2
	SQL1
	SQL2
)

// Methods lists all five in the paper's presentation order.
func Methods() []Method { return []Method{Log0, Log1, SQL1, Log2, SQL2} }

func (m Method) String() string {
	switch m {
	case Log0:
		return "Log0"
	case Log1:
		return "Log1"
	case Log2:
		return "Log2"
	case SQL1:
		return "SQL1"
	case SQL2:
		return "SQL2"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// IsLogical reports whether m is a logical-recovery variant.
func (m Method) IsLogical() bool { return m == Log0 || m == Log1 || m == Log2 }

// UsesDPT reports whether m optimises its redo test with a DPT.
func (m Method) UsesDPT() bool { return m != Log0 }

// UsesPrefetch reports whether m prefetches data pages (inline only).
func (m Method) UsesPrefetch() bool { return m == Log2 || m == SQL2 }

// Options sets a recovery run's widths. Everything else a run needs —
// the log-read model, the DC config and the buffer budget — comes from
// the crashed (or standby) engine's Config, and inline Log2 always
// preloads the index and walks the PF-list, the paper's choices
// (Appendix A.1/A.2).
// The zero value is the paper's deterministic inline run.
type Options struct {
	// RedoWorkers ≥ 1 routes each shard's redo pass to that many
	// page-partitioned worker goroutines (the routed sink, parallel.go);
	// 1 runs that machinery with one worker, the apples-to-apples
	// baseline for worker sweeps. The routed width prefetches nothing:
	// its workers overlap their own page reads. 0 applies inline, in
	// log order, on the shard's pass goroutine, wrapped in the method's
	// prefetcher: the paper's deterministic serial pass.
	//
	// Recovered *state* is correct in any mode, but virtual-time
	// durations are only meaningful serial: parallel workers interleave
	// their clock charges nondeterministically and model no IO overlap.
	// Time parallel runs with the Wall* metrics instead, as multi-shard
	// (engine.Config.Shards > 1) and file-device runs are timed.
	RedoWorkers int
	// UndoWorkers ≥ 1 routes undo's page applications to that many
	// page-partitioned worker goroutines (see undo.go), sharing the
	// redo pool's machinery; 1 is the one-worker baseline. 0
	// compensates inline. The appended log sequence is identical at
	// every width.
	UndoWorkers int
}

// DefaultOptions returns the inline widths, the zero Options; it takes
// the engine config for callers that derive their options from it.
func DefaultOptions(engine.Config) Options { return Options{} }

// clamped maps negative widths to inline.
func (opt Options) clamped() Options {
	opt.RedoWorkers = max(opt.RedoWorkers, 0)
	opt.UndoWorkers = max(opt.UndoWorkers, 0)
	return opt
}

// perRecordCPU is the fixed record-handling cost charged per log record
// during redo (dispatch, bookkeeping), on top of traversal and apply
// costs.
const perRecordCPU = 2 * sim.Microsecond

// scanAhead bounds, in decoded records, each of the demultiplexer's
// per-shard queues (which also feed a standby). Deep enough that the
// decode never starves a pass, small enough that decoded-record memory
// stays bounded.
const scanAhead = 512

// maxOutstanding bounds pages with issued-but-unclaimed prefetch IOs,
// pacing the inline prefetchers (Log2's pacer, SQL2's lookahead)
// against the device queue.
const maxOutstanding = 32

// lookaheadRecords is SQL2's log read-ahead window, in records.
const lookaheadRecords = 256

// AutoSizeWorkers picks the parallelism that fits a redo window into a
// recovery budget: the estimated serial replay time is windowBytes ÷
// bytesPerSec (the rate the previous recovery measured), and the
// worker count is that estimate divided by the budget, rounded up —
// assuming replay parallelizes roughly linearly at these widths. The
// result is clamped to [1, maxWorkers]; any non-positive input yields 1
// (no basis to parallelize).
func AutoSizeWorkers(windowBytes int64, bytesPerSec float64, budget time.Duration, maxWorkers int) int {
	if windowBytes <= 0 || bytesPerSec <= 0 || budget <= 0 || maxWorkers < 1 {
		return 1
	}
	estSec := float64(windowBytes) / bytesPerSec
	n := int(math.Ceil(estSec / budget.Seconds()))
	if n < 1 {
		n = 1
	}
	if n > maxWorkers {
		n = maxWorkers
	}
	return n
}

// maxAutoWorkers bounds auto-sized redo parallelism: one per core,
// capped at 8.
func maxAutoWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// Metrics reports what a recovery run did and how long (in virtual
// time) each phase took. RedoTotal (prep + redo) is the quantity the
// paper's Figures 2(a) and 3 plot as "redo time"; analysis/DC-pass time
// is included since the paper reports it is under 2% of the total for
// both families (§2.1). Counters aggregate across shards.
type Metrics struct {
	Method Method
	// Shards is how many data components recovered (concurrently when
	// more than one).
	Shards int
	// RedoWorkers is the per-shard redo parallelism (1 = serial).
	RedoWorkers int
	// UndoWorkers is the parallelism the undo pass ran with (1 = serial).
	UndoWorkers int

	PrepTime  sim.Duration // DC recovery (logical) or analysis pass (SQL)
	RedoTime  sim.Duration
	UndoTime  sim.Duration
	RedoTotal sim.Duration // PrepTime + RedoTime ("redo time" in figures)

	// WallRedoTime, WallUndoTime and WallTotalTime are wall-clock
	// measurements of the same phases: the only meaningful timings for
	// parallel (RedoWorkers, UndoWorkers) and multi-shard runs, and on
	// the file device, where virtual durations do not accumulate IO.
	WallRedoTime  time.Duration
	WallUndoTime  time.Duration
	WallTotalTime time.Duration

	DPTSize   int
	DeltaSeen int64 // ∆ records seen by the prep pass (Figure 2c)
	BWSeen    int64 // BW records, and ∆ records marked as one, seen by the prep pass (Figure 2c)

	RedoRecords int64 // data-op records in the redo window
	TailRecords int64 // records past the last ∆ record (basic-mode fallback)
	Applied     int64
	SkippedDPT  int64 // bypassed: page not in DPT
	SkippedRLSN int64 // bypassed: LSN below the entry's rLSN
	SkippedPLSN int64 // fetched but page already current

	DataPageFetches  int64
	IndexPageFetches int64
	LogPagesRead     int64

	// RedoWindowBytes is the stable-log span replayed: log end minus
	// the redo scan start. With the Wall* timings it yields the replay
	// rate (bytes of log per second) that seeds replay-rate-driven
	// checkpointing (engine.Checkpointer).
	RedoWindowBytes int64

	// Decode-stage telemetry for the demultiplexer's front-end.
	// DecodeSegments and DecodeRecords accumulate across the prep and
	// redo phases; DecodeWorkers is the last pass's wal.ScanStats.Workers
	// (0: its window lay inside one segment and was decoded inline).
	// LogPagesRead stays attributed exactly once — the scanner counts it
	// and the passes charge its virtual time; decode workers never do.
	DecodeWorkers  int
	DecodeSegments int
	DecodeRecords  int64

	Stalls        int64
	StallTime     sim.Duration
	PrefetchIOs   int64
	PrefetchPages int64
	PrefetchHits  int64

	LosersUndone int
	CLRsWritten  int64
	// UndoApplied counts CLR page applications performed by undo shard
	// workers (parallel undo only; structural steps are counted in
	// UndoBarriers instead).
	UndoApplied int64

	// SMOBarriers counts SMO records replayed under a shard-scoped
	// barrier during parallel redo; UndoBarriers counts structural undo
	// steps replayed under a page latch on the affected leaf.
	// BarrierWorkersPaused sums the workers parked across all barriers
	// and latches — page-latched structural undo parks exactly one
	// worker per step, versus the workers × steps a global drain would.
	SMOBarriers          int64
	UndoBarriers         int64
	BarrierWorkersPaused int64

	// RouteChanges counts committed range reassignments replayed into
	// the recovered routing table.
	RouteChanges int
}

// Recover replays the crash state under method m and returns a fully
// recovered, usable engine plus the run's metrics. Each call forks the
// crash state copy-on-write, so multiple methods can recover the same
// crash independently — the paper's controlled side-by-side comparison.
// All of the crashed engine's shards recover concurrently from the one
// log; the recovered routing table is rebuilt from the checkpoint's
// route snapshot plus any committed in-window reassignments. The run
// takes its log-read model, DC config and buffer budget from the
// crashed engine's Config; opt sets only the widths.
func Recover(cs *engine.CrashState, m Method, opt Options) (*engine.Engine, *Metrics, error) {
	opt = opt.clamped()
	clock, disks, log, err := cs.Fork(0)
	if err != nil {
		return nil, nil, fmt.Errorf("core: forking crash state: %w", err)
	}
	nShards := len(disks)
	dcs := make([]*dc.DC, nShards)
	for i, disk := range disks {
		// The crash's buffer budget, split as the engine split it.
		d, err := dc.Open(clock, disk, log, cs.Cfg.CachePages/nShards, wal.ShardID(i), cs.Cfg.DC)
		if err != nil {
			return nil, nil, fmt.Errorf("core: reopening DC shard %d: %w", i, err)
		}
		dcs[i] = d
	}

	r := newRun(clock, log, cs.Cfg.ScanCost, opt, dcs)
	r.cs, r.m = cs, m
	r.routes = shard.DefaultRoutes(nShards, cs.Cfg.KeySpan)
	met := r.met
	met.Method = m
	met.RedoWorkers = max(opt.RedoWorkers, 1)
	met.UndoWorkers = max(opt.UndoWorkers, 1)

	if err := r.findScanStart(); err != nil {
		return nil, nil, err
	}
	met.RedoWindowBytes = int64(log.FlushedLSN() - r.scanStart)

	// Worker auto-sizing (the recovery-budget tail of the budgeted
	// checkpointer): when the caller left the redo width unset and the
	// crashed engine carries both a recovery budget and a replay rate
	// measured by its previous recovery, widen redo just enough that
	// the estimated serial replay of this window fits the budget.
	// Engines without a budget keep the deterministic serial default
	// untouched. Decode keeps its own width (wal.NewScanner) either way.
	if opt.RedoWorkers == 0 && cs.Cfg.RecoveryBudget > 0 && cs.ReplayRate > 0 {
		if n := AutoSizeWorkers(met.RedoWindowBytes, cs.ReplayRate, cs.Cfg.RecoveryBudget, maxAutoWorkers()); n > 1 {
			r.opt.RedoWorkers = n
			met.RedoWorkers = n
		}
	}

	// Phase 1: prep — DC recovery (logical) or analysis (SQL), per
	// shard. The transaction table and the route changes are built here,
	// once; redo notes nothing.
	w0 := time.Now()
	t0 := clock.Now()
	prep := (*shardRun).sqlAnalysis
	if m.IsLogical() {
		prep = (*shardRun).dcPass
	}
	if err = r.fanOut(r.scanStart, r.noteGlobal, shardOf, prep); err != nil {
		return nil, nil, fmt.Errorf("core: %v prep: %w", m, err)
	}
	met.PrepTime = clock.Now().Sub(t0)
	for _, sr := range r.shards {
		if sr.table != nil {
			met.DPTSize += sr.table.Len()
		}
	}

	// Phase 2: redo — the one per-shard replay loop (redo.go), applying
	// inline (the paper's virtual-time experiments) or routing to the
	// page-partitioned pool (parallel.go).
	w1 := time.Now()
	t1 := clock.Now()
	if err = r.fanOut(r.scanStart, nil, shardOf, (*shardRun).redo); err != nil {
		return nil, nil, fmt.Errorf("core: %v redo: %w", m, err)
	}
	met.RedoTime = clock.Now().Sub(t1)
	met.RedoTotal = met.PrepTime + met.RedoTime
	met.WallRedoTime = time.Since(w1)
	// Replay wall time — prep plus redo, the phases that rescan the
	// window a checkpoint would have trimmed — fixes the replay rate
	// that seeds the Checkpointer on the recovered engine.
	replayWall := time.Since(w0)

	// Phase 3: undo of losers (logical in every method, §2.1). One
	// merged backward sweep over all shards; compensations route by each
	// record's shard, inline or to the page-partitioned pool (undo.go).
	w2 := time.Now()
	t2 := clock.Now()
	if err = r.undo(opt.UndoWorkers); err != nil {
		return nil, nil, fmt.Errorf("core: %v undo: %w", m, err)
	}
	met.UndoTime = clock.Now().Sub(t2)
	met.WallUndoTime = time.Since(w2)
	met.WallTotalTime = time.Since(w0)

	for _, sr := range r.shards {
		met.add(&sr.met)
	}
	r.captureIOStats()

	routes, err := r.finalRoutes()
	if err != nil {
		return nil, nil, err
	}
	met.RouteChanges = r.appliedRouteChanges

	// Reopen for normal operation: tracking on, SMOs logged, TC wired.
	set, err := shard.NewSet(routes, dcs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: rebuilding routing table: %w", err)
	}
	set.StartLogging()
	newTC := tc.New(log, set)
	newTC.RestoreMaster(cs.LastEndCkpt)
	newTC.SendEOSL()

	eng := cs.Recovered(clock, disks, log, set, newTC)
	lr := &engine.RecoveryStats{
		Method:      m.String(),
		WallTotal:   met.WallTotalTime,
		ReplayBytes: met.RedoWindowBytes,
	}
	if s := replayWall.Seconds(); s > 0 {
		lr.ReplayBytesPerSec = float64(met.RedoWindowBytes) / s
	}
	eng.LastRecovery = lr
	return eng, met, nil
}

// run carries one replay's cross-shard state: a crash recovery
// (Recover) or a standby's continuous catch-up (Replayer).
type run struct {
	cs     *engine.CrashState
	m      Method
	opt    Options
	cost   wal.ScanCost // the engine's log-read model
	clock  *sim.Clock
	log    *wal.Log
	met    *Metrics
	txns   *txnTable
	shards []*shardRun

	// scanStart is the penultimate begin-checkpoint LSN — the redo
	// scan start point (§3.2).
	scanStart wal.LSN

	// routeByKey, when set, overrides undo's shard routing: instead of
	// the record's shard stamp, compensations route by key. A standby
	// (core.Replayer) sets it — its shard layout need not match the
	// primary's stamps.
	routeByKey func(key uint64) (*shardRun, error)

	// routes is the routing table at the penultimate checkpoint;
	// routeChanges are the in-window ShardMapRecs, collected by
	// noteGlobal in crash recovery's pass 1 and applied at the end for
	// committed migrations only.
	routes              []wal.RouteEntry
	routeChanges        []*wal.ShardMapRec
	appliedRouteChanges int
}

// newRun wires a run over the reopened (or standby) data components.
func newRun(clock *sim.Clock, log *wal.Log, cost wal.ScanCost, opt Options, dcs []*dc.DC) *run {
	if cost.PageSize <= 0 {
		cost = wal.DefaultScanCost() // the model the log scanner falls back to
	}
	r := &run{
		opt:   opt,
		cost:  cost,
		clock: clock,
		log:   log,
		met:   &Metrics{Shards: len(dcs), RedoWorkers: 1, UndoWorkers: 1},
		txns:  newTxnTable(),
	}
	r.shards = make([]*shardRun, len(dcs))
	for i, d := range dcs {
		r.shards[i] = &shardRun{r: r, id: wal.ShardID(i), d: d}
	}
	return r
}

// shardRun is one shard's recovery state: its reopened DC plus the
// per-shard DPT, prefetch list and metrics the prep and redo passes
// build. Each of the shard's passes runs on its own goroutine.
type shardRun struct {
	r  *run
	id wal.ShardID
	d  *dc.DC

	// table is the shard's DPT (nil for Log0 and on a standby).
	table *dpt.Table
	// pfList is Log2's prefetch list: DPT-candidate PIDs in
	// first-update order (Appendix A.2), built only when the redo pass
	// paces it (run.pacesPFList).
	pfList []storage.PageID
	// lastDeltaTCLSN is the TC-LSN of the shard's last ∆ record; redo
	// records at or beyond it are the "tail of the log" handled in
	// basic mode (§4.3).
	lastDeltaTCLSN wal.LSN

	// met is this shard's private counters, merged into the run metrics
	// after the phases complete.
	met Metrics
}

// nextFunc yields one pass's records in log order; ok=false ends it.
type nextFunc func() (wal.Record, wal.LSN, bool, error)

// demuxItem is one routed record and the log pages the scan first
// touched to reach it, which the pass that takes the item pays for.
type demuxItem struct {
	rec   wal.Record
	lsn   wal.LSN
	pages int64
}

// demuxBatch is the fan-out granularity: routed records travel to the
// per-shard queues in slices of this size, so channel handoff costs
// are paid per batch, not per record.
const demuxBatch = 64

// demuxQueue is one shard's feed from the demultiplexer: batches travel
// down full, and the pass hands each drained batch back on free for the
// demultiplexer to refill. free holds every batch that can be in flight
// at once — full's, the pass's and the one the demultiplexer fills — so
// a hand-back never finds it full.
type demuxQueue struct {
	full chan []demuxItem
	free chan []demuxItem
}

// queueNext adapts one shard's demultiplexer queue to a nextFunc; the
// pass ends when the demultiplexer closes the queue. Each record's log
// pages are charged as the pass takes it — where an inline scan would
// have read them — so a pass's virtual time does not depend on how far
// ahead the demultiplexer runs.
func (r *run) queueNext(q demuxQueue) nextFunc {
	var batch, drained []demuxItem
	return func() (wal.Record, wal.LSN, bool, error) {
		for len(batch) == 0 {
			if drained != nil {
				select {
				case q.free <- drained[:0]:
				default:
				}
				drained = nil
			}
			var ok bool
			if batch, ok = <-q.full; !ok {
				return nil, wal.NilLSN, false, nil
			}
			drained = batch
		}
		it := batch[0]
		batch = batch[1:]
		r.clock.Advance(sim.Duration(it.pages) * r.cost.PerPage)
		return it.rec, it.lsn, true, nil
	}
}

// newQueues makes the demultiplexer's bounded per-shard feeds: scanAhead
// records of run-ahead each, counted in batches.
func (r *run) newQueues() []demuxQueue {
	queues := make([]demuxQueue, len(r.shards))
	for i := range queues {
		queues[i] = demuxQueue{
			full: make(chan []demuxItem, scanAhead/demuxBatch),
			free: make(chan []demuxItem, scanAhead/demuxBatch+2),
		}
	}
	return queues
}

// fanOut is the one log demultiplexer, shared by both of Recover's
// phases and by a standby's Replayer.CatchUp, at every shard count. It
// scans the stable log from `from` (wal.NewScanner: a window of two or
// more segments is decoded ahead, one worker per core); shows every record
// to note, if not nil (stream-order bookkeeping — transaction table,
// route changes — on the calling goroutine, before any pass sees the
// record); and sends it, batched, down a bounded queue to the pass of
// the shard route names, each pass on its own goroutine. Route names
// shard 0 for a record no shard owns — on one shard, every record goes
// there — and every pass ignores such records. The scan charges no
// clock: each pass pays for its records' log pages as it takes them
// (queueNext). The first pass to fail stops the scan; its error is
// returned.
func (r *run) fanOut(from wal.LSN, note func(wal.Record, wal.LSN), route func(wal.Record) wal.ShardID, pass func(*shardRun, nextFunc) error) error {
	queues := r.newQueues()
	stop := make(chan struct{})
	var stopOnce sync.Once
	var passErr error
	var wg sync.WaitGroup
	for i, sr := range r.shards {
		wg.Add(1)
		go func(sr *shardRun, next nextFunc) {
			defer wg.Done()
			if err := pass(sr, next); err != nil {
				stopOnce.Do(func() { passErr = err; close(stop) })
			}
		}(sr, r.queueNext(queues[i]))
	}

	// send hands shard i its pending batch and takes a drained one
	// back, or a new one; false means a pass failed.
	pending := make([][]demuxItem, len(r.shards))
	send := func(i int) bool {
		select {
		case queues[i].full <- pending[i]:
		case <-stop:
			return false
		}
		select {
		case pending[i] = <-queues[i].free:
		default:
			pending[i] = make([]demuxItem, 0, demuxBatch)
		}
		return true
	}
	sc := r.log.NewScanner(from, nil, r.cost)
	scanErr := func() error {
		defer sc.Close()
		for {
			pages := sc.PagesRead()
			rec, lsn, ok, err := sc.Next()
			if err != nil || !ok {
				return err
			}
			if note != nil {
				note(rec, lsn)
			}
			sh := route(rec)
			if int(sh) >= len(r.shards) {
				return fmt.Errorf("core: record at %v names shard %d, engine has %d", lsn, sh, len(r.shards))
			}
			pending[sh] = append(pending[sh], demuxItem{rec, lsn, sc.PagesRead() - pages})
			if len(pending[sh]) == demuxBatch && !send(int(sh)) {
				return nil
			}
		}
	}()
	// Records routed before a scan error still reach their passes: an
	// inline scan would have delivered them before surfacing it.
	for i, q := range queues {
		if len(pending[i]) > 0 {
			send(i)
		}
		close(q.full)
	}
	wg.Wait()
	st := sc.Stats()
	r.met.LogPagesRead += sc.PagesRead()
	r.met.DecodeWorkers = st.Workers
	r.met.DecodeSegments += st.Segments
	r.met.DecodeRecords += st.Records
	if passErr != nil {
		return passErr
	}
	return scanErr
}

// shardOf is a record's owning shard, or 0 if no shard owns it.
func shardOf(rec wal.Record) wal.ShardID {
	if s, ok := rec.(wal.Sharded); ok {
		return s.Shard()
	}
	return 0
}

// noteGlobal performs the per-record bookkeeping that belongs to the
// whole recovery, not one shard: transaction-table maintenance and
// route-change collection. Only pass 1 calls it, from exactly one
// goroutine: the demultiplexer's.
func (r *run) noteGlobal(rec wal.Record, lsn wal.LSN) {
	r.txns.note(rec, lsn)
	if sm, ok := rec.(*wal.ShardMapRec); ok {
		r.routeChanges = append(r.routeChanges, sm)
	}
}

// findScanStart resolves the master record to the redo scan start and
// seeds the transaction table and routing snapshot from the
// end-checkpoint record.
func (r *run) findScanStart() error {
	if r.cs.LastEndCkpt == wal.NilLSN {
		// Never checkpointed: scan the whole log (nothing is released
		// before the first checkpoint, so this is FirstLSN).
		r.scanStart = r.log.StartLSN()
		return nil
	}
	rec, err := r.log.Get(r.cs.LastEndCkpt)
	if err != nil {
		return fmt.Errorf("core: reading master checkpoint record: %w", err)
	}
	end, ok := rec.(*wal.EndCkptRec)
	if !ok {
		return fmt.Errorf("core: master record points at %v, want end-ckpt", rec.Type())
	}
	r.scanStart = end.BeginLSN
	r.txns.seed(end.Active)
	if len(end.Routes) > 0 {
		r.routes = end.Routes
	}
	return nil
}

// finalRoutes rebuilds the routing table the crash had: the checkpoint
// snapshot plus every in-window reassignment whose migration
// transaction committed (a loser migration's rows were undone back, so
// its routing change must not survive).
func (r *run) finalRoutes() ([]wal.RouteEntry, error) {
	router, err := shard.NewRouter(r.routes)
	if err != nil {
		return nil, fmt.Errorf("core: checkpointed routing table: %w", err)
	}
	for _, sm := range r.routeChanges {
		if !r.txns.won[sm.TxnID] {
			continue
		}
		if err := r.replayRoute(router, sm); err != nil {
			return nil, err
		}
	}
	return router.Routes(), nil
}

// replayRoute applies one committed migration's routing change to
// router at the end of a crash recovery.
func (r *run) replayRoute(router *shard.Router, sm *wal.ShardMapRec) error {
	// A change already reflected in the checkpoint's route snapshot
	// (migration committed before the end-checkpoint record) is a
	// no-op here and is not counted as replayed.
	start, _, owner := router.RangeOf(sm.SplitAt)
	if start == sm.SplitAt && owner == sm.NewShard {
		return nil
	}
	// Reassign exactly [SplitAt, End] — the rows the migration moved.
	// The live range's end boundary may have come from an unlogged
	// boundary-only split, so it is cut here rather than inferred
	// from the boundaries recovery happens to know about.
	router.Split(sm.SplitAt)
	if sm.End != ^uint64(0) {
		router.Split(sm.End + 1)
	}
	if err := router.Reassign(sm.SplitAt, sm.NewShard); err != nil {
		return fmt.Errorf("core: replaying route change at %d: %w", sm.SplitAt, err)
	}
	r.appliedRouteChanges++
	return nil
}

// add folds o's per-shard and per-worker counters into m.
func (m *Metrics) add(o *Metrics) {
	m.DeltaSeen += o.DeltaSeen
	m.BWSeen += o.BWSeen
	m.RedoRecords += o.RedoRecords
	m.TailRecords += o.TailRecords
	m.Applied += o.Applied
	m.SkippedDPT += o.SkippedDPT
	m.SkippedRLSN += o.SkippedRLSN
	m.SkippedPLSN += o.SkippedPLSN
	m.DataPageFetches += o.DataPageFetches
	m.IndexPageFetches += o.IndexPageFetches
	m.SMOBarriers += o.SMOBarriers
	m.BarrierWorkersPaused += o.BarrierWorkersPaused
}

// captureIOStats folds every shard device's counters into the metrics.
func (r *run) captureIOStats() {
	for _, sr := range r.shards {
		ds := sr.d.Disk().Stats()
		r.met.Stalls += ds.Stalls
		r.met.StallTime += ds.StallTime
		r.met.PrefetchIOs += ds.PrefetchIOs
		r.met.PrefetchPages += ds.PrefetchPages
		r.met.PrefetchHits += ds.PrefetchHits
	}
}
