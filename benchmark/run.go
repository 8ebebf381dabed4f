package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/exec"
	"logrec/internal/shard"
	"logrec/internal/tc"
	"logrec/internal/wal"
	"logrec/internal/workload"
)

// options selects one run: a workload, a seed and a pass.
type options struct {
	spec    spec
	seed    int64
	seconds int
	// scale divides rows, pool, slice size and probe lengths; 1 is the
	// benchmark, 100 is what bench_test.go runs.
	scale  int
	traced bool
	// outDir, when set, receives the traced pass's spans and counter
	// snapshots.
	outDir string
	// progress receives one line per protocol step, stamped with the
	// time since started.
	progress io.Writer
	started  time.Time

	// corruptDigest flips the pre-crash digest, so the run must fail;
	// bench_test.go uses it to show the check is live.
	corruptDigest bool
}

func (o options) scaled(n, floor int) int { return max(n/o.scale, floor) }
func (o options) rows() int               { return o.scaled(tableRows, 1000) }
func (o options) poolPages() int          { return o.scaled(o.spec.poolPages, 16) }
func (o options) txnsPerSlice() int       { return o.scaled(o.spec.txnsPerSlice, 20) }
func (o options) slices() int             { return max(int(math.Round(float64(o.seconds)/sliceSeconds)), 4) }

func (o options) logf(format string, args ...any) {
	if o.progress != nil {
		fmt.Fprintf(o.progress, "[%s %5.1fs] "+format+"\n", append([]any{o.spec.Name, time.Since(o.started).Seconds()}, args...)...)
	}
}

// result is what one run reports.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Correct   bool
	Attempted int64
	Failed    int64
	// EndToEnd is set by both passes (the traced pass has one recovery
	// and one set-up behind it instead of the medians); PerLayer only by
	// the traced pass.
	EndToEnd map[string]metric
	PerLayer map[string]metric
}

// rowSchema is walbench's: the key mirrored into a column, a payload
// string, an update-version counter and a flag set on 1 row in 16,
// which the scans filter on. ≈68 B per encoded row.
var rowSchema = exec.MustSchema(
	exec.Column{Name: "k", Type: exec.TUint64},
	exec.Column{Name: "payload", Type: exec.TString},
	exec.Column{Name: "ver", Type: exec.TUint64},
	exec.Column{Name: "flag", Type: exec.TBool},
)

const flagEvery = 16

// rowMaker builds row values without fmt, so the driver's own cost per
// update stays small next to the engine's.
type rowMaker struct {
	payload [49]byte
	vals    [4]any
}

func putHex(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = "0123456789abcdef"[v&15]
		v >>= 4
	}
}

// row returns the values of row k at version ver; the slice is reused
// by the next call.
func (m *rowMaker) row(k, ver uint64) []any {
	copy(m.payload[:], "payload-")
	putHex(m.payload[8:16], k)
	m.payload[16] = '-'
	putHex(m.payload[17:], k*0x9E3779B97F4A7C15)
	m.vals = [4]any{k, string(m.payload[:]), ver, k%flagEvery == 0}
	return m.vals[:]
}

func (m *rowMaker) encode(k, ver uint64) []byte {
	buf, err := rowSchema.Encode(m.row(k, ver)...)
	if err != nil {
		panic(err) // the values are built to the schema
	}
	return buf
}

// env is one set-up engine with its clients.
type env struct {
	opt      options
	eng      *engine.Engine
	mgr      *tc.SessionManager
	clients  []*client
	loadTime time.Duration
}

// setUp is protocol step 1: a new engine on the simulated device,
// bulk load with the first checkpoint, group commit with zero linger,
// one client session each, and one warm-up slice.
func setUp(opt options) (*env, error) {
	cfg := engine.DefaultConfig()
	cfg.CachePages = opt.poolPages()
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	var rm rowMaker
	t0 := time.Now()
	if err := eng.Load(opt.rows(), func(k uint64) []byte { return rm.encode(k, 0) }); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	e := &env{opt: opt, eng: eng, loadTime: time.Since(t0), mgr: eng.NewSessionManager(0)}
	for id := 0; id < opt.spec.clients; id++ {
		c, err := newClient(e.mgr, eng.Cfg.TableID, opt, id)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	if err := e.eachClient(func(c *client) error { return c.runSlices(1, 0) }); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// release drops the crashed engine's volatile state — pools, lock
// table, sessions — so it is garbage before the recoveries run.
func (e *env) release() {
	e.eng, e.mgr = nil, nil
	for _, c := range e.clients {
		c.mgr, c.sess, c.ex = nil, nil, nil
	}
}

// eachClient runs fn on every client at once and waits for all.
func (e *env) eachClient(fn func(c *client) error) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client is one closed-loop caller: it waits for each reply before it
// sends the next call.
type client struct {
	id    int
	opt   options
	mgr   *tc.SessionManager
	sess  *tc.Session
	ex    *exec.Executor
	gen   *workload.MixGenerator
	rows  rowMaker
	ops   []workload.MixOp
	ver   uint64
	txnNo int64

	all      *hist
	slices   []*hist
	sliceDur []time.Duration
	ckpts    []time.Duration

	committedOps, failedOps, conflicts, scanRows int64

	// Traced pass only: spans of every traceEvery-th transaction, and
	// the latencies of those transactions and of the rest apart.
	spans              *spanLog
	sampled, unsampled *hist
}

// newGenerator builds stream id of the run's operation streams. The
// run's seed reaches the engine only through the keys drawn here.
func newGenerator(opt options, mix workload.Mix, id int) (*workload.MixGenerator, error) {
	return workload.NewMixGenerator(workload.MixConfig{
		Keys:       uint64(opt.rows()),
		Mix:        mix,
		Dist:       opt.spec.dist,
		ZipfS:      1.1,
		MaxScanLen: opt.spec.maxScanLen,
		Seed:       opt.seed*1000 + int64(id),
	})
}

func newClient(mgr *tc.SessionManager, table wal.TableID, opt options, id int) (*client, error) {
	gen, err := newGenerator(opt, opt.spec.mix, id)
	if err != nil {
		return nil, err
	}
	sess := mgr.NewSession()
	return &client{
		id: id, opt: opt, mgr: mgr, sess: sess,
		ex:  exec.New(sess, table, rowSchema),
		gen: gen,
		ops: make([]workload.MixOp, opt.spec.opsPerTxn),
		all: newHist(),
	}, nil
}

// prepare allocates everything the timed phase records into, so the
// phase itself allocates nothing of the driver's.
func (c *client) prepare(slices int, traced bool) {
	c.all = newHist()
	c.slices = make([]*hist, slices)
	for i := range c.slices {
		c.slices[i] = newHist()
	}
	c.sliceDur = make([]time.Duration, slices)
	c.ckpts = nil
	c.committedOps, c.failedOps, c.conflicts, c.scanRows, c.txnNo = 0, 0, 0, 0, 0
	if traced {
		txns := slices*c.opt.txnsPerSlice()/traceEvery + 1
		c.spans = newSpanLog(txns*(c.opt.spec.opsPerTxn+3) + 2*slices)
		c.sampled, c.unsampled = newHist(), newHist()
	}
}

// runSlices runs n slices of the workload's fixed transaction count;
// client 0 checkpoints inline every ckptEvery slices, counted back from
// the end, so the crash always finds a redo window of ckptEvery slices.
// Slice s records into c.slices[s] when the client is prepared.
func (c *client) runSlices(n, ckptEvery int) error {
	for s := 0; s < n; s++ {
		h := c.all
		if c.slices != nil {
			h = c.slices[s]
		}
		t0 := time.Now()
		for i := c.opt.txnsPerSlice(); i > 0; i-- {
			if err := c.runTxn(h); err != nil {
				return err
			}
		}
		if c.sliceDur != nil {
			c.sliceDur[s] = time.Since(t0)
		}
		if c.id == 0 && ckptEvery > 0 && (n-s-1)%ckptEvery == 0 && s+1 < n {
			t0 := time.Now()
			if err := c.mgr.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint after slice %d: %w", s+1, err)
			}
			end := time.Now()
			c.ckpts = append(c.ckpts, end.Sub(t0))
			c.spans.add(spanCheckpoint, int64(len(c.ckpts)), t0, end)
		}
	}
	return nil
}

// runTxn draws one transaction and commits it, retrying lock
// conflicts; the begin→commit-ack latency goes into h. Any other error
// counts the transaction's operations as failed. Only a failed abort
// or commit, after which the session is unusable, is returned.
func (c *client) runTxn(h *hist) error {
	for i := range c.ops {
		c.ops[i] = c.gen.Next()
	}
	c.txnNo++
	var tr *spanLog
	if c.spans != nil && c.txnNo%traceEvery == 0 {
		tr = c.spans
	}
	start := time.Now()
	tr.beginTxn(int64(c.id)<<40|c.txnNo, start)
	for attempt := 1; ; attempt++ {
		err := c.attempt(tr)
		if err == nil {
			break
		}
		if c.sess.Txn() != nil {
			if aerr := c.sess.Abort(); aerr != nil {
				return fmt.Errorf("client %d: abort after %v: %w", c.id, err, aerr)
			}
		}
		if errors.Is(err, tc.ErrLockConflict) && attempt < 1000 {
			c.conflicts++
			time.Sleep(time.Duration(attempt) * 10 * time.Microsecond)
			continue
		}
		c.failedOps += int64(len(c.ops))
		tr.endTxn()
		return nil
	}
	lat := time.Since(start).Nanoseconds()
	tr.endTxn()
	c.committedOps += int64(len(c.ops))
	c.all.record(lat)
	if h != c.all {
		h.record(lat)
	}
	if tr != nil {
		c.sampled.record(lat)
	} else if c.unsampled != nil {
		c.unsampled.record(lat)
	}
	return nil
}

// attempt is the transaction itself: the same calls traced and
// untraced. tr is nil for an untraced transaction.
func (c *client) attempt(tr *spanLog) error {
	if err := c.sess.Begin(); err != nil {
		return err
	}
	tr.mark(spanBegin)
	for _, op := range c.ops {
		var err error
		name := spanGet
		switch op.Kind {
		case workload.OpRead:
			_, _, err = c.ex.Get(op.Key)
		case workload.OpUpdate:
			name = spanUpdate
			c.ver++
			err = c.ex.Update(op.Key, c.rows.row(op.Key, c.ver)...)
		case workload.OpScan:
			name = spanScan
			err = c.ex.Scan(op.Key, op.Key+uint64(op.ScanLen)-1).Where("flag", exec.Eq, true).Each(func(exec.Row) error {
				c.scanRows++
				return nil
			})
		default:
			err = fmt.Errorf("workload drew unsupported op %v", op.Kind)
		}
		tr.mark(name)
		if err != nil {
			return err
		}
	}
	err := c.sess.Commit()
	tr.mark(spanCommit)
	return err
}

// counters is the set of layer counters the driver differences over
// the timed phase, all read through the engine's exported statistics.
type counters struct {
	stats      engine.Stats
	logEnd     wal.LSN
	deltaRecs  int64
	bwRecs     int64
	diskReads  int64
	diskWrites int64
	diskSyncs  int64
}

func readCounters(eng *engine.Engine) counters {
	ds := eng.Disk.Stats()
	return counters{
		stats:      eng.Stats(),
		logEnd:     eng.Log.EndLSN(),
		deltaRecs:  eng.Log.AppendCount(wal.TypeDelta),
		bwRecs:     eng.Log.AppendCount(wal.TypeBW),
		diskReads:  ds.PagesRead,
		diskWrites: ds.PagesWritten,
		diskSyncs:  ds.Syncs,
	}
}

// timed is what the timed phase measured.
type timed struct {
	wall          time.Duration
	before, after counters
	ops, failed   int64
	all           *hist
	// One entry per slice and client: the client's own rate over the
	// slice (inline checkpoints fall between slices) and its p99 latency.
	sliceRate, sliceP99 []float64
}

// timedPhase is protocol step 2.
func (e *env) timedPhase() (*timed, error) {
	slices := e.opt.slices()
	for _, c := range e.clients {
		c.prepare(slices, e.opt.traced)
	}
	runtime.GC()
	t := &timed{before: readCounters(e.eng), all: newHist()}
	start := time.Now()
	err := e.eachClient(func(c *client) error { return c.runSlices(slices, e.opt.spec.ckptEvery) })
	t.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	t.after = readCounters(e.eng)
	for _, c := range e.clients {
		t.ops += c.committedOps
		t.failed += c.failedOps
		t.all.merge(c.all)
		for s, h := range c.slices {
			ops := float64(h.count) * float64(e.opt.spec.opsPerTxn)
			t.sliceRate = append(t.sliceRate, ops/c.sliceDur[s].Seconds())
			t.sliceP99 = append(t.sliceP99, h.percentile(0.99))
		}
	}
	return t, nil
}

// phaseRate is committed operations over the wall time of the whole
// phase, stalls and inline checkpoints included.
func (t *timed) phaseRate() float64 { return float64(t.ops) / t.wall.Seconds() }

func (t *timed) logBytesPerOp() float64 {
	return float64(t.after.logEnd-t.before.logEnd) / float64(max(t.ops, 1))
}

// tableDigest folds every row, decoded and re-encoded through the
// schema, into an FNV-64a digest (walbench's typedDigest without the
// row locks: no session is running when it is taken).
func tableDigest(set *shard.Set) (digest uint64, rows int64, err error) {
	h := fnv.New64a()
	err = set.ScanAll(func(key uint64, val []byte) error {
		vals, err := rowSchema.Decode(val)
		if err != nil {
			return fmt.Errorf("row %d: %w", key, err)
		}
		buf, err := rowSchema.Encode(vals...)
		if err != nil {
			return fmt.Errorf("row %d: %w", key, err)
		}
		var kb [8]byte
		for i := range kb {
			kb[i] = byte(key >> (8 * i))
		}
		h.Write(kb[:])
		h.Write(buf)
		rows++
		return nil
	})
	return h.Sum64(), rows, err
}

// crashed is the state protocol step 3 leaves behind.
type crashed struct {
	state      *engine.CrashState
	digest     uint64
	rows       int64
	heapMB     float64
	dirtyFrac  float64
	crashTime  time.Duration
	loserRecs  int64
	crashStart time.Time
}

// crash is protocol step 3: heap reading after a forced GC, digest of
// the committed state, losers left open on the stable log, crash.
func (e *env) crash() (*crashed, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cr := &crashed{heapMB: float64(ms.HeapAlloc) / (1 << 20)}

	var err error
	if cr.digest, cr.rows, err = tableDigest(e.eng.Set); err != nil {
		return nil, fmt.Errorf("pre-crash digest: %w", err)
	}
	if e.opt.corruptDigest {
		cr.digest ^= 1
	}

	// Loser keys are spread evenly over the table from a seed-dependent
	// offset, all distinct, so no loser waits for another's lock.
	rows := uint64(e.opt.rows())
	stride := rows / (loserTxns * loserUpdate)
	offset := uint64(e.opt.seed) % stride
	var rm rowMaker
	for j := 0; j < loserTxns; j++ {
		s := e.mgr.NewSession()
		if err := s.Begin(); err != nil {
			return nil, err
		}
		for i := 0; i < loserUpdate; i++ {
			k := offset + uint64(j*loserUpdate+i)*stride
			if err := s.Update(e.eng.Cfg.TableID, k, rm.encode(k, math.MaxUint64)); err != nil {
				return nil, fmt.Errorf("loser %d update %d: %w", j, i, err)
			}
			cr.loserRecs++
		}
	}
	e.eng.TC.SendEOSL()
	cr.dirtyFrac = e.eng.Stats().Shards[0].DirtyFraction
	cr.crashStart = time.Now()
	cr.state = e.eng.Crash()
	cr.crashTime = time.Since(cr.crashStart)
	return cr, nil
}

// verify checks a recovery against the pre-crash committed state:
// digest, row count, B-tree invariants, and every loser rolled back.
func (cr *crashed) verify(r *recovery) error {
	m := r.method
	digest, rows, err := tableDigest(r.eng.Set)
	if err != nil {
		return fmt.Errorf("%v: digest of recovered table: %w", m, err)
	}
	if rows != cr.rows {
		return fmt.Errorf("%v recovered %d rows, %d were committed", m, rows, cr.rows)
	}
	if digest != cr.digest {
		return fmt.Errorf("%v recovered digest %016x, committed state was %016x", m, digest, cr.digest)
	}
	if err := r.eng.DC.Tree().CheckInvariants(); err != nil {
		return fmt.Errorf("%v: recovered tree: %w", m, err)
	}
	if r.met.LosersUndone != loserTxns {
		return fmt.Errorf("%v rolled back %d losers, want %d", m, r.met.LosersUndone, loserTxns)
	}
	return nil
}

// recovery is one timed core.Recover with the crashed engine's options,
// the fork included.
type recovery struct {
	method core.Method
	start  time.Time
	wall   time.Duration
	met    *core.Metrics
	eng    *engine.Engine
}

func (cr *crashed) options() core.Options { return core.DefaultOptions(cr.state.Cfg) }

func (cr *crashed) recover(m core.Method, opt core.Options) (*recovery, error) {
	runtime.GC()
	r := &recovery{method: m, start: time.Now()}
	var err error
	r.eng, r.met, err = core.Recover(cr.state, m, opt)
	r.wall = time.Since(r.start)
	if err != nil {
		return nil, fmt.Errorf("recover %v: %w", m, err)
	}
	return r, nil
}

// run executes the whole protocol for one workload and pass. A
// correctness failure returns the result with Correct false and the
// reason as the error.
func run(opt options) (*result, error) {
	res := &result{Workload: opt.spec.Name, Seed: opt.seed, Traced: opt.traced}
	e2e := newMetricSet(endToEnd)

	// Step 1, repeated in the untraced pass so that setup_s is a median.
	reps := setupReps
	if opt.traced {
		reps = 1
	}
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < reps; i++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setUp(opt); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e2e.set("setup_s", median(setups))
	opt.logf("set-up %.3fs (of %.3f), load %.3fs", median(setups), setups, e.loadTime.Seconds())

	t, err := e.timedPhase()
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	res.Attempted, res.Failed = t.ops+t.failed, t.failed
	e2e.set("ops_per_s", t.phaseRate())
	e2e.set("txn_p50_ms", t.all.percentile(0.5)/1e6)
	e2e.set("txn_p99_ms", median(t.sliceP99)/1e6)
	e2e.set("log_bytes_per_op", t.logBytesPerOp())
	opt.logf("timed phase %.2fs: %d ops, %d failed, %d txns", t.wall.Seconds(), t.ops, t.failed, t.all.count)

	var tp *tracedPass
	if opt.traced {
		tp = newTracedPass(e, t)
		if err := tp.probes(); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	cr, err := e.crash()
	if err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	e2e.set("live_heap_mb", cr.heapMB)
	opt.logf("crashed: %d rows, digest %016x, live heap %.1f MB", cr.rows, cr.digest, cr.heapMB)
	e.release()

	// Step 4. The untraced pass repeats the two headline methods; the
	// traced pass runs each of the five once.
	var verr error
	if opt.traced {
		verr = tp.recoveries(cr, e2e)
	} else {
		verr = repeatedRecoveries(cr, e2e, opt)
	}
	if verr != nil && e2e.complete() != nil {
		return nil, verr // recovery itself failed, not the check of its output
	}
	res.Correct = verr == nil
	res.EndToEnd = e2e.values
	if err := e2e.complete(); err != nil {
		return nil, err
	}
	if tp != nil {
		tp.finish(cr)
		if err := tp.layer.complete(); err != nil {
			return nil, err
		}
		res.PerLayer = tp.layer.values
		if verr == nil {
			verr = tp.check(cr)
			res.Correct = verr == nil
		}
		tp.accounting()
		if err := tp.write(); err != nil {
			return nil, err
		}
	}
	opt.logf("done, peak RSS %.0f MB", peakRSSMB())
	return res, verr
}

// repeatedRecoveries alternates Log2 and SQL2 recoveries of the one crash
// and verifies the first of each.
func repeatedRecoveries(cr *crashed, e2e *metricSet, opt options) error {
	methods := []core.Method{core.Log2, core.SQL2}
	walls := make([][]float64, len(methods))
	var verr error
	for rep := 0; rep < recoveryReps; rep++ {
		for i, m := range methods {
			r, err := cr.recover(m, cr.options())
			if err != nil {
				return err
			}
			walls[i] = append(walls[i], r.wall.Seconds())
			if rep == 0 {
				verr = errors.Join(verr, cr.verify(r))
			}
		}
	}
	e2e.set("recover_log2_s", median(walls[0]))
	e2e.set("recover_sql2_s", median(walls[1]))
	opt.logf("recovery: Log2 %.3fs (of %.3f), SQL2 %.3fs (of %.3f)", median(walls[0]), walls[0], median(walls[1]), walls[1])
	return verr
}
