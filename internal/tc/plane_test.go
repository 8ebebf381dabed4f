// White-box tests for the per-shard session planes: every early return
// in the acquisition order must leave all planes free. A leaked plane
// wedges its shard forever, so these tests TryLock every plane after
// each error path.
package tc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"logrec/internal/dc"
	"logrec/internal/shard"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// newShardedMgr builds a zero-linger SessionManager over nShards real
// DCs with rows bulk-loaded across them.
func newShardedMgr(t *testing.T, nShards, rows int) *SessionManager {
	t.Helper()
	return newShardedMgrDelay(t, nShards, rows, 0)
}

// newShardedMgrDelay is newShardedMgr with a group-commit linger. Its
// cleanup checks the announced-writer count: a test that ended all its
// transactions must leave it at 0, or every later leader would yield.
func newShardedMgrDelay(t *testing.T, nShards, rows int, flushDelay time.Duration) *SessionManager {
	t.Helper()
	clock := &sim.Clock{}
	log := wal.NewLog()
	dcs := make([]*dc.DC, nShards)
	for i := range dcs {
		disk, err := storage.New(clock, storage.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := dc.New(clock, disk, log, 64, 1, wal.ShardID(i), dc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		dcs[i] = d
	}
	set, err := shard.NewSet(shard.DefaultRoutes(nShards, uint64(rows)), dcs)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < uint64(rows); k++ {
		if err := set.LoadRow(k, []byte(fmt.Sprintf("init-%06d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	set.StartLogging()
	tcx := New(log, set)
	gc := wal.NewGroupCommitter(log, set.EOSL, flushDelay)
	m := NewSessionManager(tcx, gc)
	t.Cleanup(func() {
		if n := gc.Stats().Writers; n != 0 && tcx.ActiveCount() == 0 {
			t.Errorf("%d announced writers left with no transaction active", n)
		}
	})
	return m
}

// requirePlanesFree fails unless every shard plane can be locked right
// now — i.e. nothing leaked one.
func requirePlanesFree(t *testing.T, m *SessionManager, when string) {
	t.Helper()
	for i, p := range m.planes {
		if !p.mu.TryLock() {
			t.Fatalf("%s: plane %d still held", when, i)
		}
		p.mu.Unlock()
	}
}

func TestSessionBusyAndErrorPathsLeaveNoPlaneHeld(t *testing.T) {
	const rows = 256
	m := newShardedMgr(t, 4, rows)
	sess := m.NewSession()

	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Update(1, 10, []byte("x")); err != nil { // shard 0
		t.Fatal(err)
	}
	if err := sess.Update(1, 200, []byte("y")); err != nil { // shard 3
		t.Fatal(err)
	}

	// Begin on a busy session: must fail without acquiring anything.
	if err := sess.Begin(); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("Begin on busy session = %v, want ErrSessionBusy", err)
	}
	requirePlanesFree(t, m, "after ErrSessionBusy")

	// A data operation that fails inside the DC (missing key): the
	// plane must be released on the error return.
	if err := sess.Update(1, rows+500, []byte("z")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update of missing key = %v, want ErrKeyNotFound", err)
	}
	requirePlanesFree(t, m, "after failed update")

	// Abort over the touched shards (0 and 3, multi-plane path).
	if err := sess.Abort(); err != nil {
		t.Fatal(err)
	}
	requirePlanesFree(t, m, "after abort")

	// Lock conflict: the second session is refused before any plane.
	other := m.NewSession()
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := other.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Update(1, 42, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if err := other.Update(1, 42, []byte("theirs")); !errors.Is(err, ErrLockConflict) {
		t.Fatalf("contended update = %v, want ErrLockConflict", err)
	}
	requirePlanesFree(t, m, "after lock conflict")
	if err := other.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	requirePlanesFree(t, m, "after commit")

	// Checkpoint holds every plane and must release them all.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePlanesFree(t, m, "after checkpoint")
}

// TestLockPlanesDedupes pins that duplicate and unordered shard IDs are
// acquired once each in ascending order (a double-lock would deadlock
// right here) and that the returned release is idempotent.
func TestLockPlanesDedupes(t *testing.T) {
	m := newShardedMgr(t, 4, 64)
	release := m.lockPlanes([]wal.ShardID{3, 1, 3, 1, 1})
	for _, id := range []int{1, 3} {
		if m.planes[id].mu.TryLock() {
			t.Fatalf("plane %d not held during lockPlanes window", id)
		}
	}
	requireFree := []int{0, 2}
	for _, id := range requireFree {
		if !m.planes[id].mu.TryLock() {
			t.Fatalf("plane %d held though not requested", id)
		}
		m.planes[id].mu.Unlock()
	}
	release()
	release() // idempotent
	requirePlanesFree(t, m, "after release")
}
