package engine

import (
	"logrec/internal/buffer"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// Stats is the engine-wide counter snapshot: one call collects the
// TC's transaction counters, the commit path's group-commit batching,
// the log's record counts, the routing table and every shard's pool
// and session-plane counters. Benches and tests should read this
// instead of reaching into components.
type Stats struct {
	// TC is the transaction counters (begun/committed/aborted/...).
	TC tc.Stats
	// WAL is the group committer's batching counters; zero until
	// NewSessionManager has been called.
	WAL wal.GroupCommitStats
	// LogRecords and LogStableRecords count records appended to and
	// made stable on the shared log.
	LogRecords       int64
	LogStableRecords int64
	// LogStartLSN is the oldest LSN the log still retains: every
	// checkpoint releases the segments below its redo scan start point
	// and the oldest active transaction. LogRetainedBytes is what is
	// left (log end minus LogStartLSN) in LogSegments segments;
	// LogReleasedBytes is everything dropped so far.
	LogStartLSN      wal.LSN
	LogRetainedBytes int64
	LogSegments      int
	LogReleasedBytes int64
	// Routes is the routing table at the time of the snapshot.
	Routes []wal.RouteEntry
	// Shards holds one entry per data component, indexed by shard ID.
	Shards []ShardStats
}

// ShardStats is one shard's slice of the engine snapshot.
type ShardStats struct {
	// Shard is the shard ID.
	Shard wal.ShardID
	// Pool is the shard's buffer-pool counters.
	Pool buffer.Stats
	// PoolHitRatio is Pool.Hits/(Hits+Misses), 0 with no traffic.
	PoolHitRatio float64
	// DirtyPages is the pool's current dirty-page count.
	DirtyPages int
	// DirtyFraction is DirtyPages over the pool capacity — the quantity
	// the paper's Figure 2(b) plots as the dirty cache percentage.
	DirtyFraction float64
	// SessionOps is the number of session-plane acquisitions on the
	// shard (zero until NewSessionManager).
	SessionOps int64
	// SessionBusyNS is the real time the shard's plane was held, in
	// nanoseconds — summed across operations, so under concurrency it
	// approximates how busy a dedicated core for this shard would have
	// been.
	SessionBusyNS int64
}

// Stats snapshots the whole engine. Safe to call while sessions run;
// the pieces are individually consistent (each component snapshots
// under its own lock) but not mutually atomic.
func (e *Engine) Stats() Stats {
	st := Stats{
		TC:               e.TC.Stats(),
		LogRecords:       e.Log.Records(),
		LogStableRecords: e.Log.StableRecords(),
		LogStartLSN:      e.Log.StartLSN(),
		LogSegments:      e.Log.Segments(),
		Routes:           e.Set.Routes(),
	}
	st.LogRetainedBytes = int64(e.Log.EndLSN() - st.LogStartLSN)
	st.LogReleasedBytes = int64(st.LogStartLSN - wal.FirstLSN())
	var planes []tc.PlaneStats
	if e.mgr != nil {
		st.WAL = e.mgr.CommitStats()
		planes = e.mgr.PlaneStats()
	}
	for i, d := range e.DCs {
		pool := d.Pool()
		ss := ShardStats{
			Shard:      wal.ShardID(i),
			Pool:       pool.Stats(),
			DirtyPages: pool.DirtyCount(),
		}
		ss.PoolHitRatio = ss.Pool.HitRatio()
		if c := pool.Capacity(); c > 0 {
			ss.DirtyFraction = float64(ss.DirtyPages) / float64(c)
		}
		if planes != nil {
			ss.SessionOps = planes[i].Ops
			ss.SessionBusyNS = planes[i].BusyNS
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}
