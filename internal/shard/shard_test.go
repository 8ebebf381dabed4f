package shard

import (
	"fmt"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

func TestDefaultRoutes(t *testing.T) {
	routes := DefaultRoutes(4, 1000)
	if len(routes) != 4 {
		t.Fatalf("got %d routes, want 4", len(routes))
	}
	for i, want := range []uint64{0, 250, 500, 750} {
		if routes[i].Start != want || routes[i].Shard != wal.ShardID(i) {
			t.Errorf("route %d = {%d, %d}, want {%d, %d}", i, routes[i].Start, routes[i].Shard, want, i)
		}
	}
	// Full-domain split must still cover key 0 and stay sorted.
	routes = DefaultRoutes(2, 0)
	if routes[0].Start != 0 || routes[1].Start != 1<<63 {
		t.Fatalf("full-domain routes = %v", routes)
	}
	// Degenerate span: fewer distinct starts than shards, no duplicates.
	routes = DefaultRoutes(8, 3)
	seen := map[uint64]bool{}
	for _, r := range routes {
		if seen[r.Start] {
			t.Fatalf("duplicate start %d in %v", r.Start, routes)
		}
		seen[r.Start] = true
	}
}

// TestRouterBoundaries checks Locate at every range edge: the first key
// of a range, the last key of the previous one, and the extremes of the
// domain.
func TestRouterBoundaries(t *testing.T) {
	r, err := NewRouter(DefaultRoutes(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  uint64
		want wal.ShardID
	}{
		{0, 0}, {1, 0}, {249, 0},
		{250, 1}, {251, 1}, {499, 1},
		{500, 2}, {749, 2},
		{750, 3}, {999, 3},
		// Keys past KeySpan belong to the last shard.
		{1000, 3}, {^uint64(0), 3},
	}
	for _, c := range cases {
		if got := r.Locate(c.key); got != c.want {
			t.Errorf("Locate(%d) = %d, want %d", c.key, got, c.want)
		}
	}
	start, end, owner := r.RangeOf(300)
	if start != 250 || end != 499 || owner != 1 {
		t.Errorf("RangeOf(300) = (%d, %d, %d), want (250, 499, 1)", start, end, owner)
	}
	start, end, owner = r.RangeOf(999)
	if start != 750 || end != ^uint64(0) || owner != 3 {
		t.Errorf("RangeOf(999) = (%d, %d, %d)", start, end, owner)
	}
}

// newTestSet builds a 2-shard set over simulated devices with rows
// loaded through the router.
func newTestSet(t *testing.T, rows int) *Set {
	t.Helper()
	clock := &sim.Clock{}
	log := wal.NewLog()
	dcs := make([]*dc.DC, 2)
	for i := range dcs {
		disk, err := storage.New(clock, storage.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := dc.New(clock, disk, log, 128, 1, wal.ShardID(i), dc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		dcs[i] = d
	}
	set, err := NewSet(DefaultRoutes(2, uint64(rows)), dcs)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < uint64(rows); k++ {
		if err := set.LoadRow(k, []byte(fmt.Sprintf("v-%04d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	set.StartLogging()
	return set
}

// TestSetCrossShardScan checks that rows land on their routed shards
// and that ReadRange stitches ranges across the shard boundary in key
// order.
func TestSetCrossShardScan(t *testing.T) {
	const rows = 200
	set := newTestSet(t, rows)

	// Rows live where the router says.
	for _, k := range []uint64{0, 99, 100, 199} {
		sh := set.Locate(k)
		_, found, err := set.At(sh).Read(1, k)
		if err != nil || !found {
			t.Fatalf("key %d not on shard %d (found=%v err=%v)", k, sh, found, err)
		}
		other := set.At(1 - sh)
		if _, found, _ := other.Read(1, k); found {
			t.Fatalf("key %d also present on shard %d", k, 1-sh)
		}
	}

	// A scan spanning the boundary returns every key once, in order.
	var got []uint64
	if err := set.ReadRange(90, 110, func(k uint64, v []byte) error {
		got = append(got, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 21 {
		t.Fatalf("cross-shard scan returned %d rows, want 21", len(got))
	}
	for i, k := range got {
		if k != uint64(90+i) {
			t.Fatalf("scan out of order at %d: got key %d", i, k)
		}
	}

	// ScanAll covers the whole table.
	count := 0
	if err := set.ScanAll(func(k uint64, v []byte) error {
		if k != uint64(count) {
			return fmt.Errorf("ScanAll out of order: got %d at position %d", k, count)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != rows {
		t.Fatalf("ScanAll visited %d rows, want %d", count, rows)
	}
}

// TestSetShardTargetedOps drives writes on a named shard's DC, as undo
// makes them: an insert on a shard is visible there, and routed reads
// still follow the router.
func TestSetShardTargetedOps(t *testing.T) {
	set := newTestSet(t, 100)
	logged := 0
	logFn := func(pid storage.PageID) wal.LSN {
		logged++
		return wal.NilLSN
	}
	// Key 10 routes to shard 0; move it to shard 1 by hand.
	if err := set.At(0).Delete(10, func(pid storage.PageID, _ []byte) wal.LSN { return logFn(pid) }); err != nil {
		t.Fatal(err)
	}
	if err := set.At(1).Insert(10, []byte("moved"), logFn); err != nil {
		t.Fatal(err)
	}
	if logged != 2 {
		t.Fatalf("logFn called %d times, want 2", logged)
	}
	if _, found, _ := set.At(0).Read(1, 10); found {
		t.Fatal("key 10 still on shard 0")
	}
	v, found, err := set.At(1).Read(1, 10)
	if err != nil || !found || string(v) != "moved" {
		t.Fatalf("key 10 on shard 1: found=%v v=%q err=%v", found, v, err)
	}
	// The routed read misses: the router still points at shard 0, and
	// records, not the router, own placement.
	if _, found, _ := set.At(set.Locate(10)).Tree().Search(10); found {
		t.Fatal("routed read found key 10 on shard 1")
	}
}
