// TC sessions: the one way to run a transaction. N goroutines each own
// a Session and run Begin/Update/Commit loops concurrently; the
// single-threaded, virtual-time experiment harness is the N=1 case of
// the same path.
//
// The write path is shard-parallel: there is no engine-wide mutex.
// Each shard has its own admission plane — a mutex serializing only
// that shard's DC (tree, pool) — so sessions touching different shards
// never contend, and the transaction table is hash-sharded so
// Begin/Commit never serialize behind data operations.
//
// Concurrency discipline (lock order: shard planes in ascending
// shard-ID order → transaction-table shard):
//
//   - logical locks are acquired in the sharded LockTable before any
//     plane; the table is no-wait (conflicts fail immediately), so it
//     can never participate in a deadlock cycle;
//   - the routing table is fixed when the engine is built, so a data
//     operation routes its key once and locks exactly the owning
//     shard's plane; no lock guards the route;
//   - multi-plane operations — Abort over the transaction's touched
//     shards, a cross-shard ScanRange over the shards its range
//     overlaps, Checkpoint over all shards — acquire planes in
//     ascending shard-ID order, which with the no-wait lock table is
//     the whole deadlock-freedom argument;
//   - commit durability waits happen outside every plane through the
//     wal.GroupCommitter, which is what lets many sessions overlap
//     their commit waits and share one log force (group commit);
//   - a transaction that logged nothing ends with no record, no force,
//     no plane and no EOSL (TC.endUnlogged); its commit waits only when
//     a writer it may have read released its locks before its commit
//     record was stable (waitReleasedEarly).
package tc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logrec/internal/wal"
)

// plane is one shard's admission unit: the mutex serializing the
// shard's DC, plus counters for the ops admitted and the real time
// spent holding the mutex. BusyNS is what a per-shard core would have
// been busy for — the shard sweep's modeled-parallel-throughput signal
// on hosts with fewer cores than shards.
type plane struct {
	mu     sync.Mutex
	ops    atomic.Int64
	busyNS atomic.Int64
}

// release adds the held time to the busy counter and unlocks.
func (p *plane) release(start time.Time) {
	p.busyNS.Add(time.Since(start).Nanoseconds())
	p.mu.Unlock()
}

// PlaneStats is one shard plane's counter snapshot.
type PlaneStats struct {
	// Shard is the plane's shard ID.
	Shard wal.ShardID
	// Ops is the number of plane acquisitions (data operations plus
	// multi-plane operations that included this shard).
	Ops int64
	// BusyNS is the cumulative real time the plane's mutex was held,
	// in nanoseconds.
	BusyNS int64
}

// SessionManager multiplexes concurrent sessions over one TC: a router
// in front of per-shard admission planes. Create it once, then
// NewSession per client goroutine.
type SessionManager struct {
	tc *TC
	gc *wal.GroupCommitter

	// planes holds one admission plane per shard, indexed by shard ID.
	planes []*plane

	// releasedEarly is the highest commit LSN whose transaction released
	// its locks before that record was stable (Session.Commit stores it
	// before ReleaseAll). Anything a reader saw under a lock was written
	// by a commit at or below it.
	releasedEarly atomic.Uint64
}

// NewSessionManager wraps t for concurrent use, routing every log
// append through gc so commits batch.
func NewSessionManager(t *TC, gc *wal.GroupCommitter) *SessionManager {
	t.SetAppender(gc)
	planes := make([]*plane, t.dc.NumShards())
	for i := range planes {
		planes[i] = &plane{}
	}
	return &SessionManager{tc: t, gc: gc, planes: planes}
}

// CommitStats returns the group committer's batching counters
// (engine.Stats aggregation path).
func (m *SessionManager) CommitStats() wal.GroupCommitStats { return m.gc.Stats() }

// PlaneStats snapshots every shard plane's counters, indexed by shard.
func (m *SessionManager) PlaneStats() []PlaneStats {
	out := make([]PlaneStats, len(m.planes))
	for i, p := range m.planes {
		out[i] = PlaneStats{Shard: wal.ShardID(i), Ops: p.ops.Load(), BusyNS: p.busyNS.Load()}
	}
	return out
}

// lockPlane locks the plane owning key and returns it with the
// acquisition time (for busy accounting; pass it to plane.release).
func (m *SessionManager) lockPlane(key uint64) (wal.ShardID, *plane, time.Time) {
	sh := m.tc.dc.Locate(key)
	p := m.planes[sh]
	p.mu.Lock()
	p.ops.Add(1)
	return sh, p, time.Now()
}

// lockPlanes acquires the planes of ids (deduplicated) in ascending
// shard-ID order — the only order any multi-plane path uses — and
// returns the function releasing them all in reverse. Every caller
// must guarantee the release runs on every path, error or not: a
// leaked plane wedges its shard for the life of the process. The
// release function is idempotent.
func (m *SessionManager) lockPlanes(ids []wal.ShardID) func() {
	sorted := append([]wal.ShardID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := 0
	for i, id := range sorted {
		if i == 0 || id != sorted[n-1] {
			sorted[n] = id
			n++
		}
	}
	sorted = sorted[:n]
	for _, id := range sorted {
		m.planes[id].mu.Lock()
		m.planes[id].ops.Add(1)
	}
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			held := time.Since(start).Nanoseconds()
			for i := len(sorted) - 1; i >= 0; i-- {
				p := m.planes[sorted[i]]
				p.busyNS.Add(held)
				p.mu.Unlock()
			}
		})
	}
}

// allShards returns every shard ID (Checkpoint's plane set).
func (m *SessionManager) allShards() []wal.ShardID {
	ids := make([]wal.ShardID, len(m.planes))
	for i := range ids {
		ids[i] = wal.ShardID(i)
	}
	return ids
}

// Checkpoint runs the TC checkpoint protocol holding every shard plane,
// so no data operation is in flight anywhere while the begin record,
// the RSSP broadcast and the end record are written. Commits need no
// plane and keep flowing; TC.logEnd keeps a commit the active-table
// snapshot races from being listed with its record below the
// begin-checkpoint LSN.
func (m *SessionManager) Checkpoint() error {
	release := m.lockPlanes(m.allShards())
	defer release()
	return m.tc.Checkpoint()
}

// Session is one client's handle: a single goroutine drives a session,
// one transaction at a time. Different sessions are independent.
type Session struct {
	mgr *SessionManager
	txn *Txn

	// touched marks the shards the current transaction has run data
	// operations on (indexed by shard ID), and shards lists them;
	// Abort must hold exactly those planes to undo. CLRs target the
	// shard recorded in each log record, and every such record was
	// written under one of these planes, so the set covers the whole
	// backchain.
	touched []bool
	shards  []wal.ShardID

	// announced is set while the group committer counts the current
	// transaction among the writers in flight (announce, settle); the
	// transaction's end retires it.
	announced bool
}

// NewSession creates a session. Safe to call concurrently.
func (m *SessionManager) NewSession() *Session {
	return &Session{mgr: m, touched: make([]bool, len(m.planes))}
}

// Txn returns the session's current transaction (nil between
// transactions).
func (s *Session) Txn() *Txn { return s.txn }

// Begin starts the session's next transaction. The busy check runs
// before anything is acquired, so the ErrSessionBusy return holds no
// plane, no lock and no transaction-table entry.
func (s *Session) Begin() error {
	if s.txn != nil && s.txn.status == StatusActive {
		return ErrSessionBusy
	}
	s.txn = s.mgr.tc.begin()
	for i := range s.touched {
		s.touched[i] = false
	}
	s.shards = s.shards[:0]
	return nil
}

// note records that the transaction ran a data operation on sh. The
// caller holds sh's plane.
func (s *Session) note(sh wal.ShardID) {
	if !s.touched[sh] {
		s.touched[sh] = true
		s.shards = append(s.shards, sh)
	}
}

// announce tells the group committer, once per transaction, that a
// writer is in flight. Write operations call it once their exclusive
// locks are granted and before they queue for a plane — the earliest
// point at which the transaction is sure to try to log, so a leader
// deciding whether to yield also sees the writers waiting behind it for
// the plane. settle follows the operation.
func (s *Session) announce() {
	if !s.announced {
		s.announced = true
		s.mgr.gc.AnnounceWriter()
	}
}

// settle withdraws an announcement whose operation logged nothing (a
// missing key): the transaction is still read-only, and will commit as
// one. After the first logged record it is a no-op, and Commit or Abort
// retires the announcement.
func (s *Session) settle() {
	if s.announced && s.txn.FirstLSN() == wal.NilLSN {
		s.retire()
	}
}

// retire ends the transaction's announcement, if it made one.
func (s *Session) retire() {
	if s.announced {
		s.announced = false
		s.mgr.gc.RetireWriter()
	}
}

// checkActive validates the session's transaction without touching the
// shared transaction table (the session goroutine is the only writer of
// its own txn's status).
func (s *Session) checkActive() error {
	if s.txn == nil || s.txn.status != StatusActive {
		return ErrTxnNotActive
	}
	return nil
}

// enter admits a data operation on table: the transaction must be
// active and the table the engine's. It runs before the operation takes
// a lock, an announcement or a plane, so a refused one leaves nothing
// behind and the transaction can go on.
func (s *Session) enter(table wal.TableID) error {
	if err := s.checkActive(); err != nil {
		return err
	}
	return s.mgr.tc.checkTable(table)
}

// Read returns the value under (table, key) with a shared lock.
func (s *Session) Read(table wal.TableID, key uint64) ([]byte, bool, error) {
	if err := s.enter(table); err != nil {
		return nil, false, err
	}
	if err := s.mgr.tc.locks.lock(s.txn.ID, key, LockShared); err != nil {
		return nil, false, err
	}
	sh, p, start := s.mgr.lockPlane(key)
	defer p.release(start)
	return s.mgr.tc.dc.At(sh).Tree().Search(key)
}

// ScanRange streams the rows with lo ≤ key ≤ hi through fn in key
// order, pushing pred down into each shard's B-tree iterator (nil pred
// accepts everything). It holds the planes of every shard the range
// overlaps for the duration of the scan, acquired in ascending
// shard-ID order like every multi-plane path, so no write lands on any
// of those shards mid-scan.
//
// Every row fn sees is member-locked shared (phantom protection via
// key-range lock modes is the subject of the companion Deuteronomy
// paper [13] and out of scope here). Rows pred rejects are dropped
// before they are copied or locked: the predicate reads the committed
// row version the scan meets. The value slice passed to pred and fn is
// only valid during the call; fn must copy what it keeps.
func (s *Session) ScanRange(table wal.TableID, lo, hi uint64, pred func(key uint64, val []byte) bool, fn func(key uint64, val []byte) error) error {
	if err := s.enter(table); err != nil {
		return err
	}
	m := s.mgr
	release := m.lockPlanes(m.tc.dc.OwnersIn(lo, hi))
	defer release()
	return m.tc.dc.ReadRangeFiltered(lo, hi, pred, func(key uint64, val []byte) error {
		if err := m.tc.locks.lock(s.txn.ID, key, LockShared); err != nil {
			return err
		}
		return fn(key, val)
	})
}

// write runs one row change, op on the key's owning shard, within the
// session's transaction, and counts it in n once it succeeds. Lock
// conflicts return ErrLockConflict immediately (no-wait); callers abort
// and retry. The logical lock is taken before the shard plane, so a
// conflict costs no plane time — and a failed acquisition leaves
// nothing to release.
func (s *Session) write(table wal.TableID, key uint64, n *atomic.Int64, op func(sh wal.ShardID) error) error {
	if err := s.enter(table); err != nil {
		return err
	}
	if err := s.mgr.tc.locks.lock(s.txn.ID, key, LockExclusive); err != nil {
		return err
	}
	s.announce()
	sh, p, start := s.mgr.lockPlane(key)
	defer p.release(start)
	s.note(sh)
	err := op(sh)
	s.settle()
	if err == nil {
		n.Add(1)
	}
	return err
}

// Patch rewrites the row under (table, key) to what patch returns for
// it, in the one descent that finds the row: patch is handed the row as
// it stands (valid only during the call) and must be pure, because a
// row that outgrows its leaf is patched again after the split. An error
// from patch is returned as is, and the row and the log are left as
// they were. A missing key fails with ErrKeyNotFound.
func (s *Session) Patch(table wal.TableID, key uint64, patch func(cur []byte) ([]byte, error)) error {
	return s.write(table, key, &s.mgr.tc.stats.updates, func(sh wal.ShardID) error {
		return s.mgr.tc.applyPatchAt(sh, s.txn, key, patch)
	})
}

// Update replaces the value under (table, key): Patch with the whole
// row.
func (s *Session) Update(table wal.TableID, key uint64, newVal []byte) error {
	return s.Patch(table, key, func([]byte) ([]byte, error) { return newVal, nil })
}

// Insert adds a new row within the session's transaction.
func (s *Session) Insert(table wal.TableID, key uint64, val []byte) error {
	return s.write(table, key, &s.mgr.tc.stats.inserts, func(sh wal.ShardID) error {
		return s.mgr.tc.applyInsertAt(sh, s.txn, key, val)
	})
}

// Delete removes a row within the session's transaction.
func (s *Session) Delete(table wal.TableID, key uint64) error {
	return s.write(table, key, &s.mgr.tc.stats.deletes, func(sh wal.ShardID) error {
		return s.mgr.tc.applyDeleteAt(sh, s.txn, key)
	})
}

// Commit ends the transaction. No plane is needed: the commit record
// is a TC-only append on the thread-safe log, and the transaction
// table is sharded — so commits never serialize behind data
// operations, not even on their own shards. The session then waits for
// a group-commit batch flush to cover the record, so concurrent
// committers share one log force and one EOSL push.
//
// Locks release before the durability wait (early lock release). That
// is safe because the log flushes in prefix order: a writer that read
// this one's writes appends its own commit record later, so it cannot
// become durable unless this commit is durable too; a transaction that
// logged nothing appends no record and waits for this one's instead
// (waitReleasedEarly) — which is all its commit costs.
func (s *Session) Commit() error {
	if err := s.checkActive(); err != nil {
		return err
	}
	if lsn := s.mgr.commit(s.txn); lsn != wal.NilLSN {
		s.mgr.gc.WaitStable(lsn)
	} else {
		s.mgr.waitReleasedEarly()
	}
	s.retire()
	s.txn = nil
	return nil
}

// commit ends t with its commit record and releases its locks, before
// the record is stable; the caller waits for that (see Session.Commit).
// It returns the record's LSN, or NilLSN when t logged nothing and so
// ends with no record at all (TC.endUnlogged).
func (m *SessionManager) commit(t *Txn) wal.LSN {
	if m.tc.endUnlogged(t, StatusCommitted) {
		return wal.NilLSN
	}
	lsn := m.tc.logEnd(t, &wal.CommitRec{TxnID: t.logName()}, StatusCommitted)
	m.noteReleasedEarly(lsn)
	m.tc.locks.ReleaseAll(t.ID)
	return lsn
}

// noteReleasedEarly raises releasedEarly to lsn. It must run before the
// committing transaction's locks are released.
func (m *SessionManager) noteReleasedEarly(lsn wal.LSN) {
	for {
		cur := m.releasedEarly.Load()
		if uint64(lsn) <= cur || m.releasedEarly.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// waitReleasedEarly returns once every commit that released its locks
// early — every writer a transaction ending now can have read — is
// stable. Nearly always that is two atomic loads; otherwise the caller
// waits on (or leads) the batch covering that commit record, appending
// nothing of its own.
func (m *SessionManager) waitReleasedEarly() {
	if lsn := wal.LSN(m.releasedEarly.Load()); lsn >= m.gc.StableLSN() {
		m.gc.WaitStable(lsn)
	}
}

// Abort rolls the transaction back (logical undo with CLRs) holding
// the planes of every shard the transaction touched.
func (s *Session) Abort() error {
	if err := s.checkActive(); err != nil {
		return err
	}
	if err := s.mgr.abort(s.txn, s.shards); err != nil {
		return err
	}
	s.retire()
	s.txn = nil
	return nil
}

// abort rolls t back, taking the planes of shards first in ascending
// shard-ID order, and ends it with an abort record. The release is deferred so every return —
// including a failed rollback — frees all planes. The abort record
// needs no force: it becomes stable with the next batch, and recovery
// rolls back an unfinished transaction regardless. A transaction that
// logged nothing has nothing to undo and takes no plane.
func (m *SessionManager) abort(t *Txn, shards []wal.ShardID) error {
	if m.tc.endUnlogged(t, StatusAborted) {
		return nil
	}
	release := m.lockPlanes(shards)
	defer release()
	if err := m.tc.rollback(t); err != nil {
		return fmt.Errorf("tc: rollback of txn %d: %w", t.ID, err)
	}
	m.tc.logEnd(t, &wal.AbortRec{TxnID: t.logName()}, StatusAborted)
	release()
	m.tc.locks.ReleaseAll(t.ID)
	return nil
}
