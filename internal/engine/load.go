package engine

import "logrec/internal/shard"

// Load's two stages hand rows over in batches of at most loadBatchRows
// rows or loadBatchBytes of values, whichever fills first (a single
// larger value gets a batch of its own), through a ring of loadRing
// batches.
const (
	loadBatchRows  = 512
	loadBatchBytes = 64 << 10
	loadRing       = 4
)

// Load bulk-loads n sequential rows (keys 0..n-1, routed to their
// shards), flushes them, enables logging and takes the initial
// checkpoint so the engine is in steady operation. It runs once, on an
// empty engine, before any logged operation: each shard's table is
// built bottom-up from its ascending keys (btree.Loader), not inserted
// into. A standby engine (Config.Standby) stops after the flush:
// logging stays off and no checkpoint is taken, so its log holds
// nothing but the header and shipped bytes land at exactly the
// primary's offsets.
//
// The rows go through two stages. valFn is called from the calling
// goroutine in key order, and the slice it returns is copied into a
// batch before the next call, so it may reuse one buffer. One loader
// goroutine meanwhile builds the tree from the previous batches, in
// key order, so the tree, its pages and the virtual clock come out as
// a row-at-a-time load on one goroutine leaves them. If a row fails to
// load, its error is returned as the shard's LoadRow reported it, and
// valFn has by then been called for at most loadRing × loadBatchRows
// keys beyond the failing one. The loader goroutine has ended whenever
// Load returns or a panic of valFn leaves it; the flush, the start of
// logging and the checkpoint run on the calling goroutine.
func (e *Engine) Load(n int, valFn func(key uint64) []byte) error {
	if err := loadRows(e.Set, n, valFn); err != nil {
		return err
	}
	if err := e.Set.FinishLoad(); err != nil {
		return err
	}
	if e.Cfg.Standby {
		return nil
	}
	e.Set.StartLogging()
	return e.TC.Checkpoint()
}

// loadBatch is a run of consecutive rows: the i-th has the value
// vals[ends[i-1]:ends[i]] (from 0 for i = 0). err is the loader's first
// error, set on every batch it hands back once a row has failed.
type loadBatch struct {
	ends []int
	vals []byte
	err  error
}

// loadPipe is the ring between Load's stages: the producer takes
// batches from free and sends them filled on full; the loader applies
// each and sends it back on free. Both channels hold the whole ring, so
// neither stage ever blocks on a send.
type loadPipe struct {
	full, free chan *loadBatch
	done       chan struct{}
	err        error // the loader's first error, read after done
}

// loadRows feeds rows 0..n-1 from valFn to set.LoadRow through the
// pipeline and returns the first LoadRow error.
func loadRows(set *shard.Set, n int, valFn func(key uint64) []byte) (err error) {
	p := &loadPipe{
		full: make(chan *loadBatch, loadRing),
		free: make(chan *loadBatch, loadRing),
		done: make(chan struct{}),
	}
	for i := 0; i < loadRing; i++ {
		p.free <- &loadBatch{ends: make([]int, 0, loadBatchRows), vals: make([]byte, 0, loadBatchBytes)}
	}
	go p.load(set)
	// Also when valFn panics: the loader ends before Load unwinds.
	defer func() {
		close(p.full)
		<-p.done
		if err == nil {
			err = p.err
		}
	}()
	var b *loadBatch
	for k := uint64(0); k < uint64(n); k++ {
		if b == nil || len(b.ends) == loadBatchRows {
			if b = p.next(b); b == nil {
				return nil
			}
		}
		v := valFn(k)
		if len(b.ends) > 0 && len(b.vals)+len(v) > loadBatchBytes {
			if b = p.next(b); b == nil {
				return nil
			}
		}
		b.vals = append(b.vals, v...)
		b.ends = append(b.ends, len(b.vals))
	}
	if b != nil && len(b.ends) > 0 {
		p.full <- b
	}
	return nil
}

// next hands b (if any) to the loader and takes an empty batch, or nil
// once the loader has failed.
func (p *loadPipe) next(b *loadBatch) *loadBatch {
	if b != nil {
		p.full <- b
	}
	b = <-p.free
	if b.err != nil {
		return nil
	}
	b.ends, b.vals = b.ends[:0], b.vals[:0]
	return b
}

// load is the loader goroutine: it applies every batch's rows in key
// order until one fails, then only hands batches back, marked.
func (p *loadPipe) load(set *shard.Set) {
	defer close(p.done)
	var key uint64
	for b := range p.full {
		start := 0
		for _, end := range b.ends {
			if p.err != nil {
				break
			}
			p.err = set.LoadRow(key, b.vals[start:end])
			key, start = key+1, end
		}
		b.err = p.err
		p.free <- b
	}
}
