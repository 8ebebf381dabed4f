// Package shard implements the TC's data-component plane for a
// range-sharded engine: a routing table mapping key ranges to data
// components, and a Set that stands N independent DCs (each with its
// own device, buffer pool and B-tree) behind the TC's single logical
// interface. This is the paper's unbundling claim made concrete — the
// same TC, the same logical log and the same recovery protocol drive
// any number of DCs; a single-DC engine is simply the N=1 case.
//
// Routing is by contiguous key range (LogBase-style range partitioning):
// the table is a sorted list of wal.RouteEntry boundaries, each naming
// the shard owning keys from its Start up to the next entry's Start.
// The table is fixed when the engine is built (DefaultRoutes over the
// configured shard count and key span) and never changes afterwards,
// so it is read without a lock. Every checkpoint writes it into its
// EndCkptRec, and recovery reopens the DCs under the table it finds
// there.
package shard

import (
	"fmt"
	"sort"

	"logrec/internal/dc"
	"logrec/internal/wal"
)

// DefaultRoutes partitions the key domain [0, keySpan) evenly across n
// shards (the last shard also owns keys at or above keySpan). keySpan 0
// means the full uint64 domain. n < 1 is treated as 1.
func DefaultRoutes(n int, keySpan uint64) []wal.RouteEntry {
	if n < 1 {
		n = 1
	}
	var step uint64
	if keySpan == 0 {
		step = (^uint64(0))/uint64(n) + 1 // full domain; wraps to 0 for n=1
	} else {
		step = keySpan / uint64(n)
		if step == 0 {
			step = 1
		}
	}
	routes := make([]wal.RouteEntry, 0, n)
	for i := 0; i < n; i++ {
		routes = append(routes, wal.RouteEntry{Start: uint64(i) * step, Shard: wal.ShardID(i)})
	}
	// Guard against degenerate spans (keySpan < n): dedupe equal starts,
	// keeping the first owner.
	out := routes[:1]
	for _, r := range routes[1:] {
		if r.Start > out[len(out)-1].Start {
			out = append(out, r)
		}
	}
	return out
}

// Router is the key→shard routing table: a sorted list of range starts.
// It is immutable once built, so any number of goroutines may read it.
type Router struct {
	routes []wal.RouteEntry
}

// NewRouter builds a router over the given routing table. Entries are
// sorted by Start; the first entry must cover key 0.
func NewRouter(routes []wal.RouteEntry) (*Router, error) {
	if len(routes) == 0 {
		return nil, fmt.Errorf("shard: empty routing table")
	}
	rs := append([]wal.RouteEntry(nil), routes...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
	if rs[0].Start != 0 {
		return nil, fmt.Errorf("shard: routing table does not cover key 0 (first start %d)", rs[0].Start)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Start == rs[i-1].Start {
			return nil, fmt.Errorf("shard: duplicate range start %d", rs[i].Start)
		}
	}
	return &Router{routes: rs}, nil
}

// Locate returns the shard owning key.
func (r *Router) Locate(key uint64) wal.ShardID {
	return r.routes[r.find(key)].Shard
}

// find returns the index of the range containing key.
func (r *Router) find(key uint64) int {
	// First entry with Start > key, minus one.
	i := sort.Search(len(r.routes), func(i int) bool { return r.routes[i].Start > key })
	return i - 1
}

// RangeOf returns the bounds of the range containing key: its start,
// its inclusive end (MaxUint64 for the last range) and its owner.
func (r *Router) RangeOf(key uint64) (start, end uint64, owner wal.ShardID) {
	i := r.find(key)
	start, owner = r.routes[i].Start, r.routes[i].Shard
	end = ^uint64(0)
	if i+1 < len(r.routes) {
		end = r.routes[i+1].Start - 1
	}
	return start, end, owner
}

// Routes returns a copy of the routing table in key order.
func (r *Router) Routes() []wal.RouteEntry {
	return append([]wal.RouteEntry(nil), r.routes...)
}

// Set is the routing plane the TC drives: a router plus the DCs it
// routes to, indexed by shard ID. It routes reads and scans by key and
// broadcasts the EOSL/RSSP control operations; a write always knows its
// shard already (the session's plane, the record's stamp) and goes to
// that shard's DC through At.
type Set struct {
	router *Router
	dcs    []*dc.DC

	// loadInto owns the routing range [loadStart, loadEnd] the bulk load
	// is in: an ascending load looks a range up once, not once per row.
	// Owned by the loading goroutine; FinishLoad clears it.
	loadInto           *dc.DC
	loadStart, loadEnd uint64
}

// NewSet builds the plane over the routing table and the DCs it names.
// Every route owner must be a valid index into dcs.
func NewSet(routes []wal.RouteEntry, dcs []*dc.DC) (*Set, error) {
	if len(dcs) == 0 {
		return nil, fmt.Errorf("shard: set needs at least one DC")
	}
	router, err := NewRouter(routes)
	if err != nil {
		return nil, err
	}
	for _, rt := range router.routes {
		if int(rt.Shard) >= len(dcs) {
			return nil, fmt.Errorf("shard: route at %d names shard %d, have %d DCs", rt.Start, rt.Shard, len(dcs))
		}
	}
	return &Set{router: router, dcs: dcs}, nil
}

// Single wraps one DC as a one-shard set — the N=1 engine.
func Single(d *dc.DC) *Set {
	s, err := NewSet(DefaultRoutes(1, 0), []*dc.DC{d})
	if err != nil {
		panic(err) // one DC and the trivial route cannot fail validation
	}
	return s
}

// NumShards returns the number of DCs behind the set.
func (s *Set) NumShards() int { return len(s.dcs) }

// At returns the DC owning shard id.
func (s *Set) At(id wal.ShardID) *dc.DC { return s.dcs[id] }

// DCs returns the underlying data components, indexed by shard ID.
func (s *Set) DCs() []*dc.DC { return s.dcs }

// Locate returns the shard owning key.
func (s *Set) Locate(key uint64) wal.ShardID { return s.router.Locate(key) }

// Routes returns a copy of the routing table (checkpointing).
func (s *Set) Routes() []wal.RouteEntry { return s.router.Routes() }

// Read returns the value stored under key.
func (s *Set) Read(key uint64) ([]byte, bool, error) {
	return s.dcs[s.router.Locate(key)].Tree().Search(key)
}

// ReadRange invokes fn for every row with lo ≤ key ≤ hi in key order,
// crossing shard boundaries as the scan range does.
func (s *Set) ReadRange(lo, hi uint64, fn func(key uint64, val []byte) error) error {
	return s.ReadRangeFiltered(lo, hi, nil, fn)
}

// ReadRangeFiltered is ReadRange with a predicate pushed down into each
// shard's B-tree iterator: rows failing pred are dropped before they
// cross the shard boundary. A nil pred accepts every row.
func (s *Set) ReadRangeFiltered(lo, hi uint64, pred func(key uint64, val []byte) bool, fn func(key uint64, val []byte) error) error {
	for _, pr := range s.rangesIn(lo, hi) {
		if err := s.dcs[pr.owner].ReadRangeFiltered(pr.lo, pr.hi, pred, fn); err != nil {
			return err
		}
	}
	return nil
}

// OwnersIn returns the distinct shards owning any key in [lo, hi], in
// ascending shard-ID order — the plane set a cross-shard scan holds.
func (s *Set) OwnersIn(lo, hi uint64) []wal.ShardID {
	var out []wal.ShardID
	for _, pr := range s.rangesIn(lo, hi) {
		out = append(out, pr.owner)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, id := range out {
		if i == 0 || id != out[n-1] {
			out[n] = id
			n++
		}
	}
	return out[:n]
}

// partRange is one per-shard piece of a cross-shard scan.
type partRange struct {
	lo, hi uint64
	owner  wal.ShardID
}

// rangesIn clips [lo, hi] against the routing table, in key order.
func (s *Set) rangesIn(lo, hi uint64) []partRange {
	routes := s.router.routes
	var out []partRange
	for i, rt := range routes {
		end := ^uint64(0)
		if i+1 < len(routes) {
			end = routes[i+1].Start - 1
		}
		if end < lo || rt.Start > hi {
			continue
		}
		out = append(out, partRange{lo: max(rt.Start, lo), hi: min(end, hi), owner: rt.Shard})
	}
	return out
}

// ScanAll invokes fn for every row in global key order.
func (s *Set) ScanAll(fn func(key uint64, val []byte) error) error {
	return s.ReadRange(0, ^uint64(0), fn)
}

// EOSL broadcasts a new end-of-stable-log to every shard (§4.1): one
// log force covers all DCs, which is what sharing the TC's log buys.
func (s *Set) EOSL(eLSN wal.LSN) {
	for _, d := range s.dcs {
		d.EOSL(eLSN)
	}
}

// RSSP performs the DC side of a checkpoint on every shard (§4.2):
// each flushes the pages dirtied before the redo scan start point and
// logs its own shard-stamped RSSP record.
func (s *Set) RSSP(rsspLSN wal.LSN) error {
	for i, d := range s.dcs {
		if err := d.RSSP(rsspLSN); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadRow routes one unlogged bulk-load row to its shard. Keys must
// ascend strictly within each shard (dc.DC.LoadRow); val is copied
// before LoadRow returns.
func (s *Set) LoadRow(key uint64, val []byte) error {
	if s.loadInto == nil || key < s.loadStart || key > s.loadEnd {
		var owner wal.ShardID
		s.loadStart, s.loadEnd, owner = s.router.RangeOf(key)
		s.loadInto = s.dcs[owner]
	}
	return s.loadInto.LoadRow(key, val)
}

// FinishLoad completes every shard's bulk load: release the loader,
// flush every page, persist the boot page.
func (s *Set) FinishLoad() error {
	s.loadInto = nil
	for i, d := range s.dcs {
		if err := d.FinishLoad(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// StartLogging ends bulk-load mode on every shard.
func (s *Set) StartLogging() {
	for _, d := range s.dcs {
		d.StartLogging()
	}
}

// DirtyCount sums the dirty pages across every shard's pool.
func (s *Set) DirtyCount() int {
	n := 0
	for _, d := range s.dcs {
		n += d.Pool().DirtyCount()
	}
	return n
}
