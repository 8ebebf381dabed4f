package wal

import (
	"runtime"
	"sync"
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
// single-threaded virtual-time experiments keep using Log directly.
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
	// only yields the processor, which still batches whatever is already
	// waiting (used by -race tests to keep them fast).
	flushDelay time.Duration

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

// WaitStable blocks until the record appended at lsn is on the stable
// log, joining (or leading) a batch flush. It returns the end of stable
// log it observed.
func (gc *GroupCommitter) WaitStable(lsn LSN) LSN {
	gc.mu.Lock()
	gc.stats.Commits++
	for {
		if eLSN := gc.log.FlushedLSN(); eLSN > lsn {
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
// in, then force once for everyone.
func (gc *GroupCommitter) lead() LSN {
	if gc.flushDelay > 0 {
		time.Sleep(gc.flushDelay)
	} else {
		// Let already-runnable committers append and join the batch.
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
	return st
}
