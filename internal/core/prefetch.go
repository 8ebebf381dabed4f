package core

import (
	"logrec/internal/btree"
	"logrec/internal/buffer"
	"logrec/internal/dpt"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// pacer drives Log2's data-page prefetch (§4.4, Appendix A.2): it walks
// a precomputed PID list (the PF-list, or the DPT in rLSN order for
// routed SQL2) and keeps a bounded number of read IOs outstanding, issuing
// more as redo consumes pages. Pacing against both the pool's free
// frames (inside Pool.Prefetch) and the device's in-flight count avoids
// the paper's two failure modes: prefetching too fast flushes pages
// before redo reaches them; too slow leaves redo stalling.
type pacer struct {
	pool   *buffer.Pool
	table  *dpt.Table
	list   []storage.PageID
	idx    int
	issued map[storage.PageID]struct{}
}

func newPacer(pool *buffer.Pool, table *dpt.Table, list []storage.PageID) *pacer {
	return &pacer{
		pool:   pool,
		table:  table,
		list:   list,
		issued: make(map[storage.PageID]struct{}, len(list)),
	}
}

// topUp issues prefetch until the device has maxOutstanding pages in
// flight, the pool is out of room, or the list is exhausted. Entries
// are screened the way the redo test will screen their records: pages
// pruned from the final DPT are never requested by redo, so issuing
// them would be wasted IO. A page dirtied-flushed-redirtied appears in
// several DirtySets and hence several times in the PF-list; the issued
// set dedupes it.
func (p *pacer) topUp() {
	for p.idx < len(p.list) {
		pid := p.list[p.idx]
		if _, dup := p.issued[pid]; dup ||
			(p.table != nil && p.table.Find(pid) == nil) {
			p.idx++
			continue
		}
		if p.pool.Disk().InflightCount() >= maxOutstanding {
			return
		}
		// consumed == 0 is genuine back-pressure (no free frame);
		// consumed == 1 with issued == 0 means the page is already
		// cached — progress without IO, keep walking the list.
		if consumed, _ := p.pool.Prefetch([]storage.PageID{pid}); consumed == 0 {
			return // pool out of free frames
		}
		p.issued[pid] = struct{}{}
		p.idx++
	}
}

// prefetchList is the page list a routed pass's pacers walk: Log2's
// PF-list, or for SQL2 the DPT in ascending-rLSN order — Appendix A.2's
// alternative strategy, which routed SQL2 uses in place of its
// log-driven lookahead, approximating first-use order without a second
// log scan.
func (sr *shardRun) prefetchList() []storage.PageID {
	if sr.r.m.IsLogical() {
		return sr.pfList
	}
	entries := sr.table.EntriesByRLSN()
	out := make([]storage.PageID, len(entries))
	for i, e := range entries {
		out[i] = e.PID
	}
	return out
}

// lookahead implements SQL2's log-driven read-ahead (Appendix A.2): it
// decodes records ahead of the redo cursor, and for each upcoming
// record whose PID passes the DPT screen (present, and the record's LSN
// is not below the entry's rLSN) issues a prefetch. Log pages for the
// read-ahead are charged when read, just as SQL Server's read-ahead
// reads log pages early. The window is lookaheadRecords deep.
type lookahead struct {
	src   nextFunc
	pool  *buffer.Pool
	table *dpt.Table

	buf queue[laEntry]
	// pending holds DPT-screened candidate PIDs awaiting issue.
	pending queue[storage.PageID]
	eof     bool
}

type laEntry struct {
	rec wal.Record
	lsn wal.LSN
}

// queue is a FIFO over one reused array: a pop advances head, and a
// push that finds the array full moves the live entries to its front
// once at least half of it has been popped, growing it otherwise, so
// each entry is copied a bounded number of times on average.
type queue[T any] struct {
	s    []T
	head int
}

// live returns the entries not yet popped, oldest first.
func (q *queue[T]) live() []T { return q.s[q.head:] }

// drop pops the n oldest entries.
func (q *queue[T]) drop(n int) { q.head += n }

func (q *queue[T]) push(v T) {
	if len(q.s) == cap(q.s) && q.head > 0 && q.head >= len(q.s)/2 {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

// next returns the next record, keeping the read-ahead window full and
// the prefetch queue topped up.
func (la *lookahead) next() (wal.Record, wal.LSN, bool, error) {
	if err := la.fill(); err != nil {
		return nil, wal.NilLSN, false, err
	}
	if len(la.buf.live()) == 0 {
		return nil, wal.NilLSN, false, nil
	}
	e := la.buf.live()[0]
	la.buf.drop(1)
	la.issue()
	return e.rec, e.lsn, true, nil
}

func (la *lookahead) fill() error {
	for !la.eof && len(la.buf.live()) < lookaheadRecords {
		rec, lsn, ok, err := la.src()
		if err != nil {
			return err
		}
		if !ok {
			la.eof = true
			break
		}
		la.buf.push(laEntry{rec, lsn})
		// Screen candidates exactly as the redo test will (log-driven
		// prefetch, Appendix A.2): in the DPT and not below its rLSN.
		if op, isOp := rec.(wal.DataOp); isOp {
			if e := la.table.Find(op.PID()); e != nil && lsn >= e.RLSN {
				la.pending.push(op.PID())
			}
		}
	}
	la.issue()
	return nil
}

func (la *lookahead) issue() {
	for len(la.pending.live()) > 0 {
		inFlight := la.pool.Disk().InflightCount()
		if inFlight >= maxOutstanding {
			return
		}
		chunk := min(maxOutstanding-inFlight, len(la.pending.live()))
		consumed, _ := la.pool.Prefetch(la.pending.live()[:chunk])
		la.pending.drop(consumed)
		if consumed < chunk {
			return
		}
	}
}

// preloadIndex loads every internal index page of one shard's tree
// into its cache at the start of DC recovery (Appendix A.1): logical
// redo needs them for every operation, so paying for them up front —
// level by level, with each level prefetched as a batch — removes
// per-operation index stalls.
func (sr *shardRun) preloadIndex() error {
	tree := sr.d.Tree()
	pool := sr.d.Pool()
	if tree.Meta().Height <= 1 {
		return nil
	}
	missBefore := pool.Stats().Misses
	frontier := []storage.PageID{tree.Meta().Root}
	for level := tree.Meta().Height; level > 1; level-- {
		pool.Prefetch(frontier)
		var next []storage.PageID
		for _, pid := range frontier {
			f, err := pool.Get(pid)
			if err != nil {
				return err
			}
			if level > 2 {
				next = btree.AppendChildren(next, &f.Page)
			}
			pool.Unpin(f)
		}
		frontier = next
	}
	sr.met.IndexPageFetches += pool.Stats().Misses - missBefore
	return nil
}
