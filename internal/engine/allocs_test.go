package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"logrec/internal/tc"
	"logrec/internal/wal"
)

// allocEngine loads 4,000 rows into a fully cached engine of the given
// shard count, the key span split evenly, and opens one session on it,
// as BenchmarkSessionCommit does.
func allocEngine(t *testing.T, shards int) (*Engine, *tc.Session) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CachePages = 512
	cfg.Shards, cfg.KeySpan = shards, 4000
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(4000, func(k uint64) []byte { return []byte(fmt.Sprintf("initial-value-%06d", k)) }); err != nil {
		t.Fatal(err)
	}
	return eng, eng.NewSessionManager(0).NewSession()
}

// pinAllocs fails when fn allocates more than bound times per call.
// The bounds are the largest count of 20 runs plus 2 %, and -race
// measured the same counts: lower one when a change lowers its count,
// never raise one. The collector is held off while fn runs, so no
// runtime work a collection starts counts.
func pinAllocs(t *testing.T, name string, bound float64, fn func()) {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(100, fn); n > bound {
		t.Errorf("%s: %.2f allocations per call, want at most %.2f", name, n, bound)
	} else {
		t.Logf("%s: %.2f allocations per call (bound %.2f)", name, n, bound)
	}
}

// TestSessionAllocs pins the heap allocations of the session path's
// repeatable shapes on a fixed engine: a read-only transaction of 4
// Reads and a transaction of 2 Updates with a solo committer (one
// shard), and a ScanRange of 10 keys inside one shard and across the
// boundary of two (two shards; the scans run in one open transaction,
// so their row locks are held after the first call).
func TestSessionAllocs(t *testing.T) {
	eng, s := allocEngine(t, 1)
	table := eng.Cfg.TableID
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	i := uint64(0)
	pinAllocs(t, "read-only transaction of 4 Reads", 21*1.02, func() {
		must(s.Begin())
		for u := uint64(0); u < 4; u++ {
			_, _, err := s.Read(table, (i*4+u)%8)
			must(err)
		}
		must(s.Commit())
		i++
	})
	val := []byte("updated-value-000000")
	pinAllocs(t, "transaction of 2 Updates", 16*1.02, func() {
		must(s.Begin())
		for u := uint64(0); u < 2; u++ {
			must(s.Update(table, (i*2+u)%8, val))
		}
		must(s.Commit())
		i++
	})

	eng, s = allocEngine(t, 2)
	boundary := eng.Set.Routes()[1].Start
	must(s.Begin())
	for _, c := range []struct {
		name  string
		lo    uint64
		bound float64
	}{
		{"one-shard ScanRange of 10 keys", 10, 8 * 1.02},
		{"two-shard ScanRange of 10 keys", boundary - 5, 11 * 1.02},
	} {
		rows := 0
		pinAllocs(t, c.name, c.bound, func() {
			rows = 0
			must(s.ScanRange(eng.Cfg.TableID, c.lo, c.lo+9, nil, func(uint64, []byte) error { rows++; return nil }))
		})
		if rows != 10 {
			t.Fatalf("%s: scanned %d rows", c.name, rows)
		}
	}
	must(s.Commit())
	if n := eng.Set.Locate(boundary - 5); n != 0 || eng.Set.Locate(boundary+4) != wal.ShardID(1) {
		t.Fatal("the two-shard scan does not cross the shard boundary")
	}
}
