package core

import (
	"sync"

	"logrec/internal/storage"
	"logrec/internal/wal"
)

// The routed sink: page-partitioned replay.
//
// Applying inline, the redo loop replays one record at a time; on a
// cold cache nearly every record stalls on its page fetch, so redo time
// is dominated by serialized IO (§1.3, Appendix B). The routed sink
// shards that work: the loop's survivors are routed to one of N workers
// keyed by the operation's page, so
//
//   - all records for one page land on the same worker and are applied
//     in dispatch (= log) order (per-page ordering, which is all redo
//     requires — pages are independent between structure modifications);
//   - different pages replay concurrently, overlapping their IO.
//
// The workers' own fetches are the overlap the paper's prefetchers buy
// a serial pass (§4.4, Appendix A), so the routed width prefetches
// nothing: no index preload, no PF-list, no read-ahead. The prefetchers
// are the inline pass's. A per-worker pacer over its slice of the list
// showed no benefit: on the file device routed recovery ran as fast or
// faster without it (its reads hit the OS page cache; a cold disk is
// unmeasured), and on the sim device the routed width's virtual time
// means nothing (Options.RedoWorkers). ARCHITECTURE.md has the numbers.
//
// The log is decoded upstream, by the demultiplexer's workers (fanOut),
// so the scan loop (redo.go) is the dispatcher: it routes as it
// screens, on the shard's pass goroutine:
//
//	demux ──► scan ──────────────► sink ───────────► shard workers
//	          (classify, screen)   (route, SMO       (redoOp: fetch, pLSN
//	                                barriers)         test, apply)
//
// Each data shard runs its own instance of this pipeline concurrently,
// fed by the demultiplexer; SMO barriers are then naturally local to
// the one shard whose tree the SMO changed.
//
// Structure modifications are the one cross-page dependency: an SMO
// moves keys between pages, so records before and after it may name the
// same key under different PIDs. The two families resolve it
// differently:
//
//   - Logical family: dcPass has already replayed every SMO in the
//     window (§4.2 — the tree must be well-formed before logical redo),
//     so the pages carry their end-of-window structure before redo
//     begins and the scan skips SMO records. Routing resolves the page
//     by the record's physiological PID hint rather than by the index
//     traversal the inline width performs (a deviation from the paper,
//     see ARCHITECTURE.md); it stays sound because an operation whose
//     key later moved pages is subsumed by that SMO's after-image, and
//     the pLSN test on the hinted page (stamped at or past the SMO's
//     LSN) screens it out. The index pages are therefore not on the
//     routed critical path.
//   - SQL family: SMOs replay inline at their log position (SQL
//     Server's system-transaction redo), under a barrier scoped to the
//     workers owning the SMO's pages (SMORec.AffectedPIDs): those
//     workers drain and pause, the SMO replays, and they resume.
//     Workers owning none of the SMO's pages run ahead — their queued
//     tasks touch disjoint pages, so no ordering is lost (FIFO
//     channels are the fence; the pool's barrier-epoch counter tracks
//     how many fences have been raised).
//
// Routed undo (undo.go) reuses the same worker pool across every data
// shard at once: CLRs are planned and appended serially, and their page
// applications are sharded by (data shard, page), with
// structure-changing undo operations latching only the affected leaf's
// worker (the page-latch protocol described there). For redo and undo
// alike a worker does one thing: redoOp.

// redoTask is one unit routed to a worker: a page operation on one data
// shard, or a barrier token. FIFO channel order is the fence: a task
// routed before a barrier is applied before it, one routed after waits
// behind it.
type redoTask struct {
	sr      *shardRun
	op      wal.DataOp
	lsn     wal.LSN
	barrier *poolBarrier
}

// poolBarrier synchronizes a set of workers around a structure
// modification: each affected worker signals arrival and then blocks
// until the dispatcher has applied the modification and closed resume.
type poolBarrier struct {
	arrived *sync.WaitGroup
	resume  chan struct{}
}

// shardWorker replays the page operations of its partition in arrival
// (= dispatch) order. Metrics are worker-private and merged by
// shardedPool.finish after the workers exit.
type shardWorker struct {
	tasks chan redoTask
	met   Metrics
	err   error
}

func (w *shardWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for t := range w.tasks {
		if t.barrier != nil {
			t.barrier.arrived.Done()
			<-t.barrier.resume
			continue
		}
		if w.err != nil {
			continue // drain remaining tasks so the dispatcher never blocks
		}
		w.err = t.sr.redoOp(&w.met, t.op.PID(), t.op, t.lsn)
	}
}

// shardedPool is the page-partitioned worker pool shared by routed
// redo and routed undo: route sends a page operation to the worker
// owning its (data shard, page), pause drains a subset of workers for a
// structure modification, finish joins the pool and merges worker
// metrics.
type shardedPool struct {
	workers []*shardWorker
	wg      sync.WaitGroup
	// epoch counts barriers begun (dispatcher-owned observability).
	epoch uint64
}

// newShardedPool starts n workers.
func newShardedPool(n int) *shardedPool {
	p := &shardedPool{workers: make([]*shardWorker, n)}
	for i := range p.workers {
		w := &shardWorker{tasks: make(chan redoTask, 128)}
		p.workers[i] = w
		p.wg.Add(1)
		go w.loop(&p.wg)
	}
	return p
}

// workerIndex maps a (data shard, page) pair to its owning worker. For
// shard 0 — every single-shard engine — it reduces to pid mod n, the
// PR 2 partition; other shards are offset by a Fibonacci-hash stride so
// a cross-shard undo pool spreads shards over all workers.
func workerIndex(id wal.ShardID, pid storage.PageID, n int) int {
	return int((uint64(uint32(pid)) + uint64(id)*2654435761) % uint64(n))
}

// widx maps a task's coordinates to its worker.
func (p *shardedPool) widx(sr *shardRun, pid storage.PageID) int {
	return workerIndex(sr.id, pid, len(p.workers))
}

// route sends op to the worker owning its page, blocking when that
// worker's queue is full (natural backpressure).
func (p *shardedPool) route(sr *shardRun, op wal.DataOp, lsn wal.LSN) {
	p.workers[p.widx(sr, op.PID())].tasks <- redoTask{sr: sr, op: op, lsn: lsn}
}

// pause drains and parks the workers owning pids on data shard sr — or
// every worker when pids is nil (a global barrier; sr is then ignored)
// — and returns a release function plus the number of workers paused.
// The dispatcher may touch the paused partitions' pages until it calls
// release; unaffected workers keep running.
func (p *shardedPool) pause(sr *shardRun, pids []storage.PageID) (release func(), paused int) {
	p.epoch++
	var affected []int
	if pids == nil {
		affected = make([]int, len(p.workers))
		for i := range affected {
			affected[i] = i
		}
	} else {
		seen := make(map[int]bool, len(pids))
		for _, pid := range pids {
			i := p.widx(sr, pid)
			if !seen[i] {
				seen[i] = true
				affected = append(affected, i)
			}
		}
	}
	b := &poolBarrier{arrived: new(sync.WaitGroup), resume: make(chan struct{})}
	b.arrived.Add(len(affected))
	for _, i := range affected {
		p.workers[i].tasks <- redoTask{barrier: b}
	}
	b.arrived.Wait()
	return func() { close(b.resume) }, len(affected)
}

// finish closes the pool, waits for the workers to drain, and returns
// their merged worker-side metrics plus the first worker error.
func (p *shardedPool) finish() (Metrics, error) {
	for _, w := range p.workers {
		close(w.tasks)
	}
	p.wg.Wait()
	var met Metrics
	var err error
	for _, w := range p.workers {
		if err == nil {
			err = w.err
		}
		met.add(&w.met)
	}
	return met, err
}
