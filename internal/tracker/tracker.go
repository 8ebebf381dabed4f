// Package tracker implements the normal-operation monitoring that
// prepares for optimised recovery:
//
//   - the DC's ∆-log records (§4.1): DirtySet, WrittenSet, FW-LSN,
//     FirstDirty and TC-LSN, with the Appendix D variants ("perfect"
//     per-update DirtyLSNs, and "reduced" without FW-LSN/FirstDirty);
//   - SQL Server's BW-log records (§3.3): WrittenSet and FW-LSN.
//
// Both trackers run simultaneously during normal execution, as in the
// paper's prototype (§5.1), so one log can drive both recovery
// families. ∆ records are written exactly before BW records (§5.2),
// plus extra ∆ records whenever DirtySet reaches capacity — correctness
// requires every dirtied page to be captured (§4.1). When the ∆ that
// closes a flush batch lists the BW's WrittenSet under the BW's FW-LSN,
// it is written marked as the batch's BW record (wal.DeltaRec.BW) and
// no BW record follows: one log, one record per batch.
package tracker

import (
	"fmt"
	"slices"
	"sync"

	"logrec/internal/storage"
	"logrec/internal/wal"
)

// Variant selects the ∆-record fidelity (Appendix D).
type Variant int

// ∆-record variants.
const (
	// DeltaStandard is the paper's main design: FW-LSN + FirstDirty.
	DeltaStandard Variant = iota
	// DeltaPerfect additionally logs the dirtying LSN of every DirtySet
	// entry (D.1), allowing a DPT identical to SQL Server's.
	DeltaPerfect
	// DeltaReduced omits FW-LSN and FirstDirty (D.2): all dirty pages
	// take the previous record's TC-LSN as rLSN.
	DeltaReduced
)

func (v Variant) String() string {
	switch v {
	case DeltaStandard:
		return "standard"
	case DeltaPerfect:
		return "perfect"
	case DeltaReduced:
		return "reduced"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Config parameterises the recorder.
type Config struct {
	// Variant selects ∆-record fidelity.
	Variant Variant
	// FlushBatch is how many flush completions accumulate before a
	// BW record (and the ∆ record preceding it, or that ∆ alone marked
	// as the BW) is written.
	FlushBatch int
	// MaxDirty caps DirtySet; reaching it forces an extra ∆ record.
	MaxDirty int
}

// DefaultConfig matches the experiment defaults: a BW/∆ record pair
// roughly every 32 flush completions yields the same ~25-60 records per
// analysis window the paper's Figure 2(c) reports.
func DefaultConfig() Config {
	return Config{Variant: DeltaStandard, FlushBatch: 32, MaxDirty: 256}
}

// Stats counts tracker activity.
type Stats struct {
	DeltaRecords   int64
	BWRecords      int64 // standalone BW records
	DeltaBWs       int64 // ∆ records marked as their batch's BW, written in place of one
	DirtyCaptured  int64
	FlushCaptured  int64
	CapacityDeltas int64 // ∆ records forced by a full DirtySet
}

// BWIntervals is how many BW intervals were closed: standalone BW
// records plus ∆ records standing in for one.
func (s Stats) BWIntervals() int64 { return s.BWRecords + s.DeltaBWs }

// Recorder owns both trackers and their shared cadence. It is wired to
// the DC: NoteUpdate on every page dirtying, NoteFlush from the buffer
// pool's flush hook, NoteEOSL from the TC's EOSL control operation.
// A mutex makes the recorder safe for concurrent use: under concurrent
// sessions, EOSL arrives from the group-commit flusher's goroutine
// while updates and flushes arrive from sessions holding the engine
// mutex.
type Recorder struct {
	mu  sync.Mutex
	log *wal.Log
	cfg Config

	// shard stamps every emitted ∆/BW record with the owning DC, so
	// recovery can demultiplex the shared log into per-shard pipelines.
	shard wal.ShardID

	// eLSN is the TC's end of stable log per the latest EOSL; it
	// becomes the ∆ record's TC-LSN (§4.1).
	eLSN wal.LSN

	// ---- ∆ state (reset after each ∆ record) ----
	dirtySet  []storage.PageID
	dirtyLSNs []wal.LSN // perfect variant only
	// seg marks which interval segment a PID was already captured in:
	// 1 = before the first write, 2 = after. A PID is appended at most
	// once per segment; segment 2 re-appends advance the page's
	// effective lastLSN to FW-LSN during DPT construction (§4.2).
	seg            map[storage.PageID]uint8
	deltaWritten   []storage.PageID
	deltaFW        wal.LSN
	deltaFirst     int
	haveFirstWrite bool

	// ---- BW state (reset after each BW record) ----
	bwWritten []storage.PageID
	bwFW      wal.LSN

	// enabled gates capture; recovery disables the recorder so redo's
	// own flush activity is not logged.
	enabled bool

	stats Stats
}

// New creates a recorder appending to log on behalf of shard sh.
func New(log *wal.Log, sh wal.ShardID, cfg Config) (*Recorder, error) {
	if cfg.FlushBatch < 1 {
		return nil, fmt.Errorf("tracker: FlushBatch must be ≥ 1, got %d", cfg.FlushBatch)
	}
	if cfg.MaxDirty < 1 {
		return nil, fmt.Errorf("tracker: MaxDirty must be ≥ 1, got %d", cfg.MaxDirty)
	}
	return &Recorder{
		log:     log,
		cfg:     cfg,
		shard:   sh,
		seg:     make(map[storage.PageID]uint8),
		enabled: true,
	}, nil
}

// SetEnabled turns capture on or off (off during recovery).
func (r *Recorder) SetEnabled(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enabled = on
}

// Stats returns a copy of the counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Config returns the recorder configuration.
func (r *Recorder) Config() Config { return r.cfg }

// NoteEOSL records a new TC end-of-stable-log (the EOSL control
// operation, §4.1).
func (r *Recorder) NoteEOSL(eLSN wal.LSN) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if eLSN > r.eLSN {
		r.eLSN = eLSN
	}
}

// NoteUpdate captures a page dirtying by the operation at lsn. Appends
// are deduplicated per interval segment; every clean→dirty transition
// lands in some ∆ record, which §4.1 requires for correctness.
func (r *Recorder) NoteUpdate(pid storage.PageID, lsn wal.LSN) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	want := uint8(1)
	if r.haveFirstWrite {
		want = 2
	}
	if r.seg[pid] >= want {
		return
	}
	r.seg[pid] = want
	r.dirtySet = append(r.dirtySet, pid)
	if r.cfg.Variant == DeltaPerfect {
		r.dirtyLSNs = append(r.dirtyLSNs, lsn)
	}
	r.stats.DirtyCaptured++
	if len(r.dirtySet) >= r.cfg.MaxDirty {
		r.stats.CapacityDeltas++
		r.emitDelta(r.delta())
	}
}

// NoteFlush captures a completed page flush. The first flush of each
// interval snapshots FW-LSN (the TC end of stable log "at the time of
// the first write") and FirstDirty (the DirtySet index of the next
// dirty capture), per §4.1.
func (r *Recorder) NoteFlush(pid storage.PageID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.enabled {
		return
	}
	if !r.haveFirstWrite {
		r.haveFirstWrite = true
		r.deltaFW = r.eLSN
		r.deltaFirst = len(r.dirtySet)
	}
	r.deltaWritten = append(r.deltaWritten, pid)
	if len(r.bwWritten) == 0 {
		r.bwFW = r.eLSN
	}
	r.bwWritten = append(r.bwWritten, pid)
	r.stats.FlushCaptured++
	if len(r.bwWritten) >= r.cfg.FlushBatch {
		r.closeBatch()
	}
}

// ForceEmit writes out any buffered state (used at checkpoints so the
// interval aligns with the redo scan start, and by tests).
func (r *Recorder) ForceEmit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeBatch()
}

// closeBatch writes the ∆ record exactly before the BW record (§5.2), so
// both recovery families see equivalent information at the same log
// position. A ∆ that lists exactly the BW's WrittenSet under the BW's
// FW-LSN already says everything the BW would: it is marked as the BW
// and written alone. The two differ when a capacity ∆ fired inside the
// batch (it took the batch's first flushes) or when the reduced variant
// logs a nil FW-LSN; the BW record is then written after the ∆.
func (r *Recorder) closeBatch() {
	d := r.delta()
	if d != nil && len(r.bwWritten) > 0 && slices.Equal(d.WrittenSet, r.bwWritten) && d.FWLSN == r.bwFW {
		d.BW = true
		r.stats.DeltaBWs++
		r.bwWritten = nil
		r.bwFW = wal.NilLSN
	}
	r.emitDelta(d)
	r.emitBW()
}

// delta builds the ∆ record of the current interval, nil if the interval
// captured nothing.
func (r *Recorder) delta() *wal.DeltaRec {
	if len(r.dirtySet) == 0 && len(r.deltaWritten) == 0 {
		return nil
	}
	rec := &wal.DeltaRec{
		DirtySet:   r.dirtySet,
		WrittenSet: r.deltaWritten,
		TCLSN:      r.eLSN,
		ShardID:    r.shard,
	}
	// With no flush in the interval there is no FW-LSN: every entry
	// was dirtied "before the first write", so FirstDirty covers the
	// whole DirtySet and analysis assigns the previous record's TC-LSN.
	first := r.deltaFirst
	if !r.haveFirstWrite {
		first = len(r.dirtySet)
	}
	switch r.cfg.Variant {
	case DeltaStandard:
		rec.FWLSN = r.deltaFW
		rec.FirstDirty = uint32(first)
	case DeltaPerfect:
		rec.FWLSN = r.deltaFW
		rec.FirstDirty = uint32(first)
		rec.DirtyLSNs = r.dirtyLSNs
	case DeltaReduced:
		// D.2: no FW-LSN, no FirstDirty. FirstDirty = len(DirtySet)
		// encodes "treat every entry as dirtied before the first
		// write"; FW-LSN stays nil.
		rec.FWLSN = wal.NilLSN
		rec.FirstDirty = uint32(len(r.dirtySet))
	}
	return rec
}

// emitDelta appends rec, if any, and starts the next ∆ interval.
func (r *Recorder) emitDelta(rec *wal.DeltaRec) {
	if rec == nil {
		return
	}
	r.log.MustAppend(rec)
	r.stats.DeltaRecords++
	// Reset the ∆ interval.
	r.dirtySet = nil
	r.dirtyLSNs = nil
	r.deltaWritten = nil
	r.deltaFW = wal.NilLSN
	r.deltaFirst = 0
	r.haveFirstWrite = false
	clear(r.seg)
}

func (r *Recorder) emitBW() {
	if len(r.bwWritten) == 0 {
		return
	}
	r.log.MustAppend(&wal.BWRec{WrittenSet: r.bwWritten, FWLSN: r.bwFW, ShardID: r.shard})
	r.stats.BWRecords++
	r.bwWritten = nil
	r.bwFW = wal.NilLSN
}
