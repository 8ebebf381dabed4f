package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/wal"
	"logrec/internal/workload"
)

// spanName indexes spanNames; a span's layer is the prefix of its name.
type spanName uint8

const (
	spanTxn spanName = iota
	spanBegin
	spanGet
	spanUpdate
	spanScan
	spanCommit
	spanCheckpoint
	spanCrash
	spanRecover
	spanFork
	spanPrep
	spanRedo
	spanUndo
)

var spanNames = [...]string{
	"txn", "tc.begin", "exec.get", "exec.update", "exec.scan", "tc.commit",
	"engine.checkpoint", "engine.crash", "core.recover", "core.fork", "core.prep", "core.redo", "core.undo",
}

// span is one interval at a layer boundary. parent is the index of the
// causing span in the same log, -1 for a root; the spans of one
// request share txn.
type span struct {
	name       spanName
	parent     int32
	txn        int64
	start, end time.Time
}

// spanLog is one goroutine's preallocated span memory. Within a
// transaction consecutive spans share a timestamp: each mark ends one
// span and starts the next, so tracing costs one clock reading per
// call into the engine. All methods accept a nil log and do nothing,
// which is how an untraced transaction runs the same code.
type spanLog struct {
	spans []span
	root  int32
	last  time.Time
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) beginTxn(txn int64, now time.Time) {
	if l == nil {
		return
	}
	l.root = int32(len(l.spans))
	l.last = now
	l.spans = append(l.spans, span{name: spanTxn, parent: -1, txn: txn, start: now})
}

func (l *spanLog) mark(name spanName) {
	if l == nil {
		return
	}
	now := time.Now()
	l.spans = append(l.spans, span{name: name, parent: l.root, txn: l.spans[l.root].txn, start: l.last, end: now})
	l.last = now
}

func (l *spanLog) endTxn() {
	if l == nil {
		return
	}
	l.spans[l.root].end = l.last
}

// add records a root span outside any transaction and returns its
// index, for children to name as parent.
func (l *spanLog) add(name spanName, txn int64, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: -1, txn: txn, start: start, end: end})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) child(name spanName, parent int32, start time.Time, d time.Duration) time.Time {
	p := l.spans[parent]
	l.spans = append(l.spans, span{name: name, parent: parent, txn: p.txn, start: start, end: start.Add(d)})
	return start.Add(d)
}

// spanTotals collects span durations by name, and for transactions the
// part their children cover.
type spanTotals struct {
	byName  [len(spanNames)]*hist
	covered time.Duration // Σ children of txn spans
}

func (t *spanTotals) addLog(l *spanLog) {
	for _, s := range l.spans {
		if t.byName[s.name] == nil {
			t.byName[s.name] = newHist()
		}
		d := s.end.Sub(s.start)
		t.byName[s.name].record(d.Nanoseconds())
		if s.parent >= 0 && l.spans[s.parent].name == spanTxn {
			t.covered += d
		}
	}
}

// medianMicros is the median duration of the spans of one name; a
// mean would follow the one commit that waits for the log to be copied.
func (t *spanTotals) medianMicros(n spanName) float64 {
	if t.byName[n] == nil {
		return 0
	}
	return t.byName[n].percentile(0.5) / 1e3
}

// tracedPass holds what only the traced pass measures: probes on the
// warm engine, one recovery per method, and the per-layer metrics.
type tracedPass struct {
	opt   options
	env   *env // until the crash
	t     *timed
	load  time.Duration
	layer *metricSet
	main  *spanLog // checkpoints are in client 0's log; crash and recoveries here

	clients       []*client
	spans         spanTotals
	updateRecSize float64
	twoWriterRate float64
	snapshots     []counterSnapshot
	recs          map[core.Method]*recovery
	forks         map[core.Method]time.Duration
}

// counterSnapshot is the engine's counters at one protocol boundary.
type counterSnapshot struct {
	At       string       `json:"at"`
	Stats    engine.Stats `json:"stats"`
	LogEnd   wal.LSN      `json:"log_end"`
	DiskRead int64        `json:"disk_pages_read"`
	DiskWrit int64        `json:"disk_pages_written"`
}

func newTracedPass(e *env, t *timed) *tracedPass {
	tp := &tracedPass{
		opt: e.opt, env: e, t: t, load: e.loadTime, layer: newMetricSet(perLayer), main: newSpanLog(64), clients: e.clients,
		recs: map[core.Method]*recovery{}, forks: map[core.Method]time.Duration{},
	}
	tp.snapshot("timed-phase-start", t.before)
	tp.snapshot("timed-phase-end", t.after)
	return tp
}

func (tp *tracedPass) snapshot(at string, c counters) {
	tp.snapshots = append(tp.snapshots, counterSnapshot{
		At: at, Stats: c.stats, LogEnd: c.logEnd, DiskRead: c.diskReads, DiskWrit: c.diskWrites,
	})
}

// perCall times fn over keys and returns nanoseconds per call.
func perCall(keys []uint64, fn func(k uint64) error) (float64, error) {
	t0 := time.Now()
	for _, k := range keys {
		if err := fn(k); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(keys)), nil
}

// perCallInTxns is perCall for calls that need a transaction: keys are
// taken 100 to a transaction and only the calls are on the clock.
func perCallInTxns(sess *tc.Session, keys []uint64, fn func(k uint64) error) (float64, error) {
	var total time.Duration
	for rest := keys; len(rest) > 0; {
		batch := rest[:min(100, len(rest))]
		rest = rest[len(batch):]
		if err := sess.Begin(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, k := range batch {
			if err := fn(k); err != nil {
				return 0, err
			}
		}
		total += time.Since(t0)
		if err := sess.Commit(); err != nil {
			return 0, err
		}
	}
	return float64(total.Nanoseconds()) / float64(len(keys)), nil
}

// probes times each layer's entry point on the warm engine, after the
// timed phase and before the crash, with keys of the workload's own
// distribution. The read probes nest — Executor.Get calls Session.Read
// calls DC.Read calls Tree.Search calls Pool.Get — so the difference
// between two of them is the outer layer's self time. No session is
// running, so the data component may be called without its plane.
func (tp *tracedPass) probes() error {
	e, opt := tp.env, tp.opt
	n := opt.scaled(probeCalls, 1000)
	gen, err := newGenerator(opt, workload.Mix{Read: 1}, 999)
	if err != nil {
		return err
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = gen.NextKey()
	}
	var (
		table       = e.eng.Cfg.TableID
		c           = tp.clients[0]
		tree, pool  = e.eng.DC.Tree(), e.eng.DC.Pool()
		locks       = e.eng.TC.Locks()
		lockTxn     = wal.TxnID(1) << 62 // no transaction of the run has this ID
		locksHeld   = 0
		scratch     = wal.NewLog()
		rm          rowMaker
		encoded     = rm.encode(1, 1)
		updateRec   = &wal.UpdateRec{TxnID: 1, TableID: table, OldVal: encoded, NewVal: encoded, PageID: 1}
		poolLookups int64
	)
	// 64 leaves, cycled: once touched they stay resident even in the
	// smallest pool.
	leaves := make([]uint64, n)
	for i := range leaves {
		if i < 64 {
			pid, err := tree.FindLeaf(keys[i])
			if err != nil {
				return err
			}
			leaves[i] = uint64(pid)
		} else {
			leaves[i] = leaves[i-64]
		}
	}
	getPage := func(pid uint64) error {
		f, err := pool.Get(storage.PageID(pid))
		if err == nil {
			pool.Unpin(f)
		}
		return err
	}
	if _, err := perCall(leaves[:64], getPage); err != nil {
		return err
	}

	for _, p := range []struct {
		metric string
		ns     func() (float64, error)
	}{
		{"exec.codec_encode_ns", func() (float64, error) {
			return perCall(keys, func(uint64) error { _, err := rowSchema.Encode(rm.vals[:]...); return err })
		}},
		{"exec.codec_decode_ns", func() (float64, error) {
			return perCall(keys, func(uint64) error { _, err := rowSchema.Decode(encoded); return err })
		}},
		{"exec.get_ns", func() (float64, error) {
			return perCallInTxns(c.sess, keys, func(k uint64) error { _, _, err := c.ex.Get(k); return err })
		}},
		{"tc.read_ns", func() (float64, error) {
			return perCallInTxns(c.sess, keys, func(k uint64) error { _, _, err := c.sess.Read(table, k); return err })
		}},
		{"tc.lock_ns", func() (float64, error) { // 100 shared locks to a release
			defer locks.ReleaseAll(lockTxn)
			return perCall(keys, func(k uint64) error {
				if locksHeld++; locksHeld%100 == 0 {
					locks.ReleaseAll(lockTxn)
				}
				return locks.Acquire(lockTxn, table, k, tc.LockShared)
			})
		}},
		{"dc.read_ns", func() (float64, error) {
			return perCall(keys, func(k uint64) error { _, _, err := e.eng.DC.Read(table, k); return err })
		}},
		{"btree.search_ns", func() (float64, error) {
			before := pool.Stats()
			ns, err := perCall(keys, func(k uint64) error { _, _, err := tree.Search(k); return err })
			after := pool.Stats()
			poolLookups = after.Hits + after.Misses - before.Hits - before.Misses
			return ns, err
		}},
		{"buffer.get_hit_ns", func() (float64, error) { return perCall(leaves, getPage) }},
		{"storage.read_ns", func() (float64, error) {
			return perCall(leaves, func(pid uint64) error { _, err := e.eng.Disk.Read(storage.PageID(pid)); return err })
		}},
		{"wal.append_ns", func() (float64, error) { // a typical update record, to a scratch log
			return perCall(keys, func(k uint64) error {
				updateRec.KeyVal = k
				_, err := scratch.Append(updateRec)
				return err
			})
		}},
	} {
		ns, err := p.ns()
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		tp.layer.set(p.metric, ns)
	}
	tp.layer.set("btree.pages_per_lookup", float64(poolLookups)/float64(n))
	tp.updateRecSize = float64(scratch.EndLSN()-wal.FirstLSN()) / float64(n)
	tp.layer.set("wal.bytes_per_update_rec", tp.updateRecSize)
	tp.snapshot("probes-end", readCounters(e.eng))
	return nil
}

// recoveries is the traced pass's protocol step 4: each of the five
// methods recovers the crash once (fork timed alone first), all five
// must reach the committed state, and Log2 runs once more two workers
// wide; that last engine then serves the two-writer probe.
func (tp *tracedPass) recoveries(cr *crashed, e2e *metricSet) error {
	tp.env = nil
	tp.main.add(spanCrash, 0, cr.crashStart, cr.crashStart.Add(cr.crashTime))
	opt := cr.options()
	// The first fork of a crash state pays for fresh memory under the
	// cloned log; pay it here, so that every fork below, alone or inside
	// a recovery, is a warm one and the two can be compared.
	if _, _, _, err := cr.state.Fork(0); err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	var verr error
	for i, m := range core.Methods() {
		runtime.GC() // as before the recovery itself
		t0 := time.Now()
		if _, _, _, err := cr.state.Fork(0); err != nil {
			return fmt.Errorf("fork: %w", err)
		}
		tp.forks[m] = time.Since(t0)
		r, err := cr.recover(m, opt)
		if err != nil {
			return err
		}
		verr = errors.Join(verr, cr.verify(r))
		// Children from the wall fields core.Metrics returns; what is
		// left of the span (reopening the DCs, rebuilding the TC) is
		// core.recover's self time.
		root := tp.main.add(spanRecover, int64(i+1), r.start, r.start.Add(r.wall))
		prep := r.met.WallTotalTime - r.met.WallRedoTime - r.met.WallUndoTime
		at := tp.main.child(spanFork, root, r.start, min(tp.forks[m], r.wall-r.met.WallTotalTime))
		at = tp.main.child(spanPrep, root, at, prep)
		at = tp.main.child(spanRedo, root, at, r.met.WallRedoTime)
		tp.main.child(spanUndo, root, at, r.met.WallUndoTime)
		r.eng = nil // garbage before the next method recovers
		tp.recs[m] = r
	}
	e2e.set("recover_log2_s", tp.recs[core.Log2].wall.Seconds())
	e2e.set("recover_sql2_s", tp.recs[core.SQL2].wall.Seconds())

	opt.RedoWorkers, opt.UndoWorkers = 2, 2
	w2, err := cr.recover(core.Log2, opt)
	if err != nil {
		return err
	}
	verr = errors.Join(verr, cr.verify(w2))
	tp.layer.set("core.recover_log2_w2_s", w2.wall.Seconds())
	if tp.twoWriterRate, err = tp.twoWriters(w2.eng); err != nil {
		return fmt.Errorf("two-writer probe: %w", err)
	}
	return verr
}

// twoWriters runs two concurrent oltp_cached-shaped writers on a
// recovered engine for 3 s and returns their committed ops per second.
// It is a probe, not a workload: on two shared cores its rate spreads
// 11–27 % from run to run.
func (tp *tracedPass) twoWriters(eng *engine.Engine) (float64, error) {
	opt := tp.opt
	opt.spec = specs[0]
	opt.spec.clients = 2
	e := &env{opt: opt, eng: eng, mgr: eng.NewSessionManager(0)}
	for id := 0; id < 2; id++ {
		c, err := newClient(e.mgr, eng.Cfg.TableID, opt, 100+id)
		if err != nil {
			return 0, err
		}
		e.clients = append(e.clients, c)
	}
	deadline := time.Now().Add(3 * time.Second / time.Duration(opt.scale))
	start := time.Now()
	err := e.eachClient(func(c *client) error {
		for time.Now().Before(deadline) {
			for i := 0; i < 100; i++ {
				if err := c.runTxn(c.all); err != nil {
					return err
				}
			}
		}
		return nil
	})
	wall := time.Since(start)
	var ops int64
	for _, c := range e.clients {
		ops += c.committedOps
	}
	return float64(ops) / wall.Seconds(), err
}

// finish turns spans, counter deltas and recovery metrics into the
// per-layer metric set.
func (tp *tracedPass) finish(cr *crashed) {
	t, l := tp.t, tp.layer
	ops := float64(max(t.ops, 1))
	nClients := float64(len(tp.clients))

	tot := &tp.spans
	sampled, unsampled := newHist(), newHist()
	var conflicts int64
	for _, c := range tp.clients {
		tot.addLog(c.spans)
		sampled.merge(c.sampled)
		unsampled.merge(c.unsampled)
		conflicts += c.conflicts
	}
	l.set("exec.get_us", tot.medianMicros(spanGet))
	l.set("exec.update_us", tot.medianMicros(spanUpdate))
	l.set("exec.scan_us", tot.medianMicros(spanScan))
	l.set("tc.begin_us", tot.medianMicros(spanBegin))
	l.set("tc.commit_us", tot.medianMicros(spanCommit))

	b, a := t.before.stats, t.after.stats
	l.set("tc.plane_busy_share", float64(a.Shards[0].SessionBusyNS-b.Shards[0].SessionBusyNS)/(float64(t.wall.Nanoseconds())*nClients))
	l.set("tc.lock_conflicts", float64(conflicts))
	l.set("tc.commits", float64(a.TC.Committed-b.TC.Committed))
	l.set("tc.aborts", float64(a.TC.Aborted-b.TC.Aborted))

	pb, pa := b.Shards[0].Pool, a.Shards[0].Pool
	hits, misses := float64(pa.Hits-pb.Hits), float64(pa.Misses-pb.Misses)
	l.set("buffer.hit_ratio", hits/max(hits+misses, 1))
	l.set("buffer.misses_per_op", misses/ops)
	l.set("buffer.evictions", float64(pa.Evictions-pb.Evictions))
	l.set("buffer.dirty_evictions", float64(pa.DirtyEvict-pb.DirtyEvict))
	l.set("buffer.flushes", float64(pa.Flushes-pb.Flushes))
	l.set("buffer.log_forces", float64(pa.LogForces-pb.LogForces))
	l.set("buffer.dirty_fraction_at_crash", cr.dirtyFrac)
	l.set("storage.page_reads", float64(t.after.diskReads-t.before.diskReads))
	l.set("storage.page_writes", float64(t.after.diskWrites-t.before.diskWrites))
	l.set("storage.syncs", float64(t.after.diskSyncs-t.before.diskSyncs))

	flushes := float64(max(a.WAL.Flushes-b.WAL.Flushes, 1))
	l.set("wal.records_per_op", float64(a.LogRecords-b.LogRecords)/ops)
	l.set("wal.flushes", float64(a.WAL.Flushes-b.WAL.Flushes))
	l.set("wal.records_per_flush", float64(a.WAL.FlushedRecords-b.WAL.FlushedRecords)/flushes)
	l.set("wal.commits_per_flush", float64(a.WAL.Commits-b.WAL.Commits)/flushes)
	l.set("tracker.delta_recs", float64(t.after.deltaRecs-t.before.deltaRecs))
	l.set("tracker.bw_recs", float64(t.after.bwRecs-t.before.bwRecs))
	decodeNS, trackerShare := decodeWindow(cr)
	l.set("wal.decode_ns_per_rec", decodeNS)
	l.set("tracker.log_byte_share", trackerShare)

	var ckpt time.Duration
	ckpts := tp.clients[0].ckpts
	for _, d := range ckpts {
		ckpt += d
	}
	l.set("engine.load_s", tp.load.Seconds())
	l.set("engine.checkpoint_s", ckpt.Seconds()/float64(max(len(ckpts), 1)))
	l.set("engine.checkpoint_count", float64(len(ckpts)))
	l.set("engine.crash_s", cr.crashTime.Seconds())

	for m, r := range tp.recs {
		name := strings.ToLower(m.String())
		l.set("core.recover_s."+name, r.wall.Seconds())
		l.set("core.redo_virtual_s."+name, float64(r.met.RedoTotal)/1e9)
		if m != core.Log2 && m != core.SQL2 {
			continue
		}
		met := r.met
		set := func(metric string, v float64) { l.set(metric+"."+name, v) }
		set("core.fork_s", tp.forks[m].Seconds())
		set("core.prep_s", (met.WallTotalTime - met.WallRedoTime - met.WallUndoTime).Seconds())
		set("core.redo_s", met.WallRedoTime.Seconds())
		set("core.undo_s", met.WallUndoTime.Seconds())
		set("core.redo_records", float64(met.RedoRecords))
		set("core.applied", float64(met.Applied))
		set("core.skipped_dpt", float64(met.SkippedDPT))
		set("core.skipped_rlsn", float64(met.SkippedRLSN))
		set("core.skipped_plsn", float64(met.SkippedPLSN))
		set("core.data_page_fetches", float64(met.DataPageFetches))
		set("core.index_page_fetches", float64(met.IndexPageFetches))
		set("core.log_pages_read", float64(met.LogPagesRead))
		set("core.prefetch_hits", float64(met.PrefetchHits))
		set("core.stalls", float64(met.Stalls))
		set("core.clrs_written", float64(met.CLRsWritten))
		set("core.losers_undone", float64(met.LosersUndone))
		set("core.redo_ns_per_record", float64(met.WallRedoTime.Nanoseconds())/float64(max(met.RedoRecords, 1)))
		set("dpt.size", float64(met.DPTSize))
	}
	l.set("core.log2_over_sql2", tp.recs[core.Log2].wall.Seconds()/tp.recs[core.SQL2].wall.Seconds())

	// A traced transaction differs from its untraced neighbours only by
	// the tracing, so the difference of their median latencies, times
	// the number traced, is the time tracing added to the phase. (Means
	// would do if a single stalled commit could not move them.)
	added := float64(sampled.count) * (sampled.percentile(0.5) - unsampled.percentile(0.5))
	l.set("driver.trace_overhead_share", added/(float64(t.wall.Nanoseconds())*nClients))
	l.set("driver.phase_ops_per_s", t.phaseRate())
	l.set("driver.slice_ops_per_s_min", slices.Min(t.sliceRate))
	l.set("driver.txn_p50_ms", t.all.percentile(0.5)/1e6)
	l.set("driver.txn_p99_ms", median(t.sliceP99)/1e6)
	l.set("driver.txn_p999_ms", t.all.percentile(0.999)/1e6)
	l.set("driver.commit_2w_ops_per_s", tp.twoWriterRate)
	l.set("driver.peak_rss_mb", peakRSSMB())
}

// decodeWindow scans the crash window of the stable log once with
// wal.Scanner — what every recovery method's passes do first — and
// returns the decode cost per record and the share of the window's
// bytes that are the trackers' ∆ and BW records.
func decodeWindow(cr *crashed) (nsPerRec, trackerShare float64) {
	log := cr.state.Log
	from := wal.FirstLSN()
	if rec, err := log.Get(cr.state.LastEndCkpt); err == nil {
		if end, ok := rec.(*wal.EndCkptRec); ok {
			from = end.BeginLSN
		}
	}
	sc := log.NewScanner(from, nil, cr.state.Cfg.ScanCost)
	var (
		recs, trackerBytes int64
		prev               wal.LSN
		prevType           wal.Type
	)
	t0 := time.Now()
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil || !ok {
			break
		}
		if prevType == wal.TypeDelta || prevType == wal.TypeBW {
			trackerBytes += int64(lsn - prev)
		}
		prev, prevType = lsn, rec.Type()
		recs++
	}
	dt := time.Since(t0)
	window := float64(log.FlushedLSN() - from)
	return float64(dt.Nanoseconds()) / float64(max(recs, 1)), float64(trackerBytes) / max(window, 1)
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// check holds the run to what the workloads were built to separate; a
// false statement fails the run.
func (tp *tracedPass) check(cr *crashed) error {
	v := func(name string) float64 { return tp.layer.values[name].Value }
	sp := tp.opt.spec
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(sp.Name+": "+format, args...))
	}
	logBytes := tp.t.logBytesPerOp()
	switch sp.Name {
	case "oltp_cached", "read_scan_2c":
		if m := v("buffer.misses_per_op"); m != 0 {
			fail("buffer.misses_per_op = %g on a cached workload, want 0", m)
		}
	case "update_spill":
		if m := v("buffer.misses_per_op"); m <= 0.05 {
			fail("buffer.misses_per_op = %g, want > 0.05", m)
		}
	}
	if sp.Name == "read_scan_2c" {
		// oltp_cached logs an update record for every second op, so a
		// tenth of its log_bytes_per_op is at least this.
		if limit := tp.updateRecSize / 2 / 10; logBytes >= limit {
			fail("log_bytes_per_op = %.2f, want under %.2f (a tenth of oltp_cached's)", logBytes, limit)
		}
		// Its own transactions leave no redo records: what the window
		// holds beyond the crash step's loser updates must be 0.
		if own := v("core.redo_records.log2") - float64(cr.loserRecs); own != 0 {
			fail("core.redo_records.log2 = %g beyond the %d loser updates, want 0", own, cr.loserRecs)
		}
	}
	if sp.clients == 1 {
		if c := v("tc.lock_conflicts"); c != 0 {
			fail("tc.lock_conflicts = %g with one client, want 0", c)
		}
	}
	return errors.Join(errs...)
}

// accounting reports, without failing the run, whether the tracing's own
// books balance: a neighbour's burst must not turn a diagnostic into a
// failed run. The statements are about the benchmark's own sizes; at
// test scale a recovery is all fixed cost and a median latency rests on
// a few hundred transactions.
func (tp *tracedPass) accounting() {
	if tp.opt.scale != 1 {
		return
	}
	warn := func(format string, args ...any) { tp.opt.logf("warning: "+format, args...) }
	if o := tp.layer.values["driver.trace_overhead_share"].Value; o >= 0.10 {
		warn("driver.trace_overhead_share = %.3f, want under 0.10", o)
	}
	tot := &tp.spans
	cov := float64(tot.covered) / float64(max(tot.byName[spanTxn].sum, 1))
	if cov < 0.90 {
		warn("child spans cover %.3f of the txn spans, want ≥ 0.90", cov)
	}
	tp.opt.logf("child spans cover %.4f of the txn spans", cov)
	for _, m := range core.Methods() {
		r := tp.recs[m]
		parts := tp.forks[m] + r.met.WallTotalTime
		if parts < r.wall*95/100 || parts > r.wall*105/100 {
			warn("%v: fork alone + prep + redo + undo = %v, core.recover span = %v, want within 5 %%", m, parts, r.wall)
		}
	}
}

// write puts the spans and the counter snapshots into outDir.
func (tp *tracedPass) write() error {
	opt := tp.opt
	if opt.outDir == "" {
		return nil
	}
	base := filepath.Join(opt.outDir, fmt.Sprintf("%s.seed%d", opt.spec.Name, opt.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	logs := []*spanLog{tp.main}
	for _, c := range tp.clients {
		logs = append(logs, c.spans)
	}
	epoch := tp.clients[0].spans.epochOr(tp.main)
	offset := 0
	for _, l := range logs {
		for i, s := range l.spans {
			parent := -1
			if s.parent >= 0 {
				parent = offset + int(s.parent)
			}
			fmt.Fprintf(w, `{"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"txn":%d}`+"\n",
				offset+i, spanNames[s.name], s.start.Sub(epoch).Nanoseconds(), s.end.Sub(epoch).Nanoseconds(), parent, s.txn)
		}
		offset += len(l.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(struct {
		Snapshots []counterSnapshot `json:"snapshots"`
		Latency   *hist             `json:"txn_latency_ns"`
		SliceRate []float64         `json:"slice_ops_per_s"`
		SliceP99  []float64         `json:"slice_txn_p99_ns"`
	}{tp.snapshots, tp.t.all, tp.t.sliceRate, tp.t.sliceP99}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".counters.json", buf, 0o644)
}

// epochOr returns the start of the log's first span, or of other's.
func (l *spanLog) epochOr(other *spanLog) time.Time {
	if len(l.spans) > 0 {
		return l.spans[0].start
	}
	return other.spans[0].start
}
