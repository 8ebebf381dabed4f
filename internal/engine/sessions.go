package engine

import (
	"time"

	"logrec/internal/tc"
	"logrec/internal/wal"
)

// NewSessionManager opens the engine for transactions: it wraps the
// shared log in a wal.GroupCommitter (batched log forces, EOSL
// published to the DC once per batch) and returns a tc.SessionManager
// from which each client obtains its own Session — the only way to run
// a transaction. Call it once per engine.
//
// flushDelay is the emulated stable-write latency of the log device in
// *real* time — the window the batch leader lingers so concurrent
// commits coalesce. Zero batches only what is already waiting, and a
// lone writer forces inline at once: the single-threaded recovery
// experiments run this way. ~100µs models a fast NVMe log force;
// `go test -run '^$' -bench WALGroupCommit .` sweeps clients at 50µs.
func (e *Engine) NewSessionManager(flushDelay time.Duration) *tc.SessionManager {
	gc := wal.NewGroupCommitter(e.Log, func(eLSN wal.LSN) { e.Set.EOSL(eLSN) }, flushDelay)
	e.mgr = tc.NewSessionManager(e.TC, gc)
	return e.mgr
}
