package wal

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// GroupCommitStats counts group-commit activity. Records-per-flush —
// the batching factor the paper's group-commit discussion (and LogBase)
// cares about — is FlushedRecords / Flushes.
type GroupCommitStats struct {
	// Appends is the total number of records appended to the log since
	// the committer was created (all append paths, including DC-side
	// SMO and ∆/BW records).
	Appends int64
	// Commits is the number of WaitStable calls served.
	Commits int64
	// Flushes is the number of batch flushes (stable-boundary moves).
	Flushes int64
	// FlushedRecords is the number of records those flushes made
	// stable, counted exactly from the log's stable-record counter. A
	// raw Log.Flush outside the committer (checkpoints, WAL-protocol
	// log forces) attributes its records to the committer's next batch.
	FlushedRecords int64
	// MaxBatch is the largest number of records covered by one flush.
	MaxBatch int64
	// Yields is how many times a zero-linger leader gave up the
	// processor before forcing because another announced writer was in
	// flight. A lone writer never yields: Yields stays 0 and Flushes
	// equals Commits.
	Yields int64
	// Writers is a gauge, not a counter: the announced writers in flight
	// when the snapshot was taken (see AnnounceWriter). It is 0 whenever
	// no transaction that has written is still open; a leaked
	// announcement would turn every later leader into a yielder.
	Writers int
}

// RecordsPerFlush returns the mean batching factor (0 before the first
// flush).
func (s GroupCommitStats) RecordsPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.FlushedRecords) / float64(s.Flushes)
}

// GroupCommitter batches log flushes across concurrent committers. Many
// goroutines append records and then wait for durability; instead of
// forcing the log once per commit, the first waiter becomes the batch
// leader, lingers for FlushDelay (emulating the stable-write latency of
// a real log device) while more commits pile into the tail, then moves
// the stable boundary once for the whole batch and publishes the new
// end of stable log through a single OnStable callback (the EOSL
// control operation — once per batch, not once per record).
//
// GroupCommitter is a wrapper around Log, not a replacement: the
// bulk load and recovery, which run before an engine opens for
// sessions, append to Log directly.
type GroupCommitter struct {
	log *Log

	// onStable, when set, receives the new end of stable log after each
	// batch flush (typically dc.EOSL). It is called from the leader's
	// goroutine while it is still the leader (so calls are ordered) but
	// with no committer lock held, so it may take component locks; it
	// must not call back into the committer, and nothing it waits for
	// may be waiting on a flush.
	onStable func(LSN)

	// flushDelay is the emulated stable-write latency: how long the
	// batch leader lingers before forcing the log. Zero means the leader
	// forces at once unless another announced writer is in flight, in
	// which case it yields the processor first so that writer can append
	// and join the batch.
	flushDelay time.Duration

	// writers counts announced writers: transactions at or past their
	// first write whose end is not yet stable (see AnnounceWriter).
	writers atomic.Int32
	// yields backs GroupCommitStats.Yields (the leader counts outside mu).
	yields atomic.Int64
	// stable is the highest end of stable log this committer has seen,
	// a lower bound on Log.FlushedLSN readable without the log's mutex.
	// Written under mu.
	stable atomic.Uint64

	// lastStable is the log's stable-record count at the committer's
	// previous flush; the delta at each flush is that batch's size.
	// Only the active leader (flushing == true is exclusive) touches it.
	lastStable int64

	mu       sync.Mutex
	cond     *sync.Cond
	flushing bool
	stats    GroupCommitStats
}

// NewGroupCommitter wraps log. onStable may be nil; flushDelay is the
// emulated device latency per flush (see GroupCommitter).
func NewGroupCommitter(log *Log, onStable func(LSN), flushDelay time.Duration) *GroupCommitter {
	gc := &GroupCommitter{log: log, onStable: onStable, flushDelay: flushDelay}
	gc.lastStable = log.StableRecords()
	gc.stable.Store(uint64(log.FlushedLSN()))
	gc.cond = sync.NewCond(&gc.mu)
	return gc
}

// Log returns the wrapped log.
func (gc *GroupCommitter) Log() *Log { return gc.log }

// Append appends rec to the shared log tail. Safe from any goroutine;
// the record is volatile until a batch flush covers it.
func (gc *GroupCommitter) Append(rec Record) (LSN, error) {
	return gc.log.Append(rec)
}

// MustAppend is Append for call sites where the log cannot be frozen;
// it panics on error. It satisfies the TC's appender contract.
func (gc *GroupCommitter) MustAppend(rec Record) LSN {
	lsn, err := gc.Append(rec)
	if err != nil {
		panic(err)
	}
	return lsn
}

// AnnounceWriter tells the committer that a transaction is writing and
// will come to WaitStable (or abort) soon: the signal a zero-linger
// leader uses to decide whether yielding could let anybody join its
// batch. The caller announces at the transaction's first write and pairs
// it with exactly one RetireWriter — when the commit is stable, when the
// abort record is appended, or at once if that write logged nothing.
func (gc *GroupCommitter) AnnounceWriter() { gc.writers.Add(1) }

// RetireWriter ends an AnnounceWriter.
func (gc *GroupCommitter) RetireWriter() { gc.writers.Add(-1) }

// StableLSN returns the highest end of stable log the committer has
// observed, without touching the log: every record below it is stable.
// It can trail Log.FlushedLSN (a raw Log.Flush does not pass through
// here); WaitStable is the authoritative check.
func (gc *GroupCommitter) StableLSN() LSN { return LSN(gc.stable.Load()) }

// noteStable advances the StableLSN high-water mark. Caller holds mu.
func (gc *GroupCommitter) noteStable(eLSN LSN) {
	if uint64(eLSN) > gc.stable.Load() {
		gc.stable.Store(uint64(eLSN))
	}
}

// WaitStable blocks until the record appended at lsn is on the stable
// log, joining (or leading) a batch flush. It returns the end of stable
// log it observed.
func (gc *GroupCommitter) WaitStable(lsn LSN) LSN {
	gc.mu.Lock()
	gc.stats.Commits++
	for {
		if eLSN := gc.log.FlushedLSN(); eLSN > lsn {
			gc.noteStable(eLSN)
			gc.mu.Unlock()
			return eLSN
		}
		if !gc.flushing {
			gc.flushing = true
			gc.mu.Unlock()
			eLSN := gc.lead()
			return eLSN
		}
		gc.cond.Wait()
	}
}

// Flush forces the log immediately as a batch of its own (checkpoint
// and EOSL-cadence paths) and notifies OnStable.
func (gc *GroupCommitter) Flush() LSN {
	gc.mu.Lock()
	for gc.flushing {
		gc.cond.Wait()
	}
	gc.flushing = true
	gc.mu.Unlock()

	eLSN := gc.finishFlush()
	return eLSN
}

// lead runs the leader's side of a batch: linger so followers can pile
// in, then force once for everyone. At zero linger the only followers
// worth waiting for are announced writers other than the leader itself
// (a leader that announced nothing, such as a read-only commit waiting
// on a writer it read, is rare enough to be counted as one): with none
// in flight the yield is a scheduler round-trip that nobody can use.
func (gc *GroupCommitter) lead() LSN {
	switch {
	case gc.flushDelay > 0:
		time.Sleep(gc.flushDelay)
	case gc.writers.Load() > 1:
		gc.yields.Add(1)
		runtime.Gosched()
	}
	return gc.finishFlush()
}

// finishFlush moves the stable boundary, accounts the batch, wakes
// every waiter and publishes EOSL. Caller must have set gc.flushing.
func (gc *GroupCommitter) finishFlush() LSN {
	eLSN := gc.log.Flush()
	stable := gc.log.StableRecords()
	batch := stable - gc.lastStable
	gc.lastStable = stable

	gc.mu.Lock()
	gc.noteStable(eLSN)
	gc.stats.Flushes++
	gc.stats.FlushedRecords += batch
	if batch > gc.stats.MaxBatch {
		gc.stats.MaxBatch = batch
	}
	cb := gc.onStable
	if cb != nil {
		// Let the committers this flush covered go, but stay the leader
		// across the callback: EOSL publications then reach the DC in
		// flush order. (Left to race after the hand-over, an earlier
		// leader's smaller eLSN could arrive after a later one's.)
		gc.cond.Broadcast()
		gc.mu.Unlock()
		cb(eLSN)
		gc.mu.Lock()
	}
	gc.flushing = false
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return eLSN
}

// Stats returns a copy of the counters.
func (gc *GroupCommitter) Stats() GroupCommitStats {
	total := gc.log.Records()
	gc.mu.Lock()
	defer gc.mu.Unlock()
	st := gc.stats
	st.Appends = total
	st.Yields = gc.yields.Load()
	st.Writers = int(gc.writers.Load())
	return st
}
