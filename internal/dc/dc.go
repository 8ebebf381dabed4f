// Package dc implements Deuteronomy's data component: it owns data
// placement (the clustered B-tree), the database cache (buffer pool),
// and the normal-operation recovery preparation of §4 — SMO logging,
// ∆-log records and (for the side-by-side SQL-style comparison) BW-log
// records. It exposes only logical operations to the TC.
package dc

import (
	"fmt"

	"logrec/internal/btree"
	"logrec/internal/buffer"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/tracker"
	"logrec/internal/wal"
)

// Config parameterises a DC.
type Config struct {
	// Tracker configures ∆/BW recording.
	Tracker tracker.Config
	// CleanerTarget is the lazywriter's dirty-fraction ceiling for the
	// buffer pool (0 disables background cleaning).
	CleanerTarget float64
}

// cleanerEvery is the lazywriter's rate term: one background flush per
// this many page dirtyings.
const cleanerEvery = 3

// DefaultConfig matches the experiment defaults: lazywriter keeping the
// cache at most ~30% dirty, the small-cache equilibrium of the paper's
// Figure 2(b).
func DefaultConfig() Config {
	return Config{
		Tracker:       tracker.DefaultConfig(),
		CleanerTarget: 0.30,
	}
}

// DC is the data component.
type DC struct {
	disk storage.Device
	pool *buffer.Pool
	log  *wal.Log
	tree *btree.Tree
	rec  *tracker.Recorder

	// shard is this DC's identity on the shared log: every record it
	// originates (SMO, ∆, BW, RSSP) carries it, so recovery can
	// demultiplex the log into per-shard pipelines. A single-DC engine
	// is shard 0.
	shard wal.ShardID

	// rsspLSN is the last redo-scan-start-point received (persisted in
	// the metadata page).
	rsspLSN wal.LSN

	// loader is the bulk load in progress: set by the first LoadRow,
	// cleared by FinishLoad.
	loader *btree.Loader
}

// smoLogger adapts the shared log for the tree's SMO records, stamping
// each with the originating shard.
type smoLogger struct {
	log   *wal.Log
	shard wal.ShardID
}

func (l smoLogger) NextLSN() wal.LSN { return l.log.EndLSN() }
func (l smoLogger) AppendSMO(r *wal.SMORec, at wal.LSN) bool {
	r.ShardID = l.shard
	return l.log.MustAppendAt(r, at)
}

// New creates a DC over an empty disk with a freshly created table,
// logging as shard sh. The tree starts unlogged (bulk-load mode); call
// StartLogging once the initial load is flushed.
func New(clock *sim.Clock, disk storage.Device, log *wal.Log, cacheCapacity int, tableID wal.TableID, sh wal.ShardID, cfg Config) (*DC, error) {
	pool, err := buffer.New(disk, cacheCapacity)
	if err != nil {
		return nil, err
	}
	pool.SetCleanerTarget(cfg.CleanerTarget)
	pool.SetCleanerRate(cleanerEvery)
	rec, err := tracker.New(log, sh, cfg.Tracker)
	if err != nil {
		return nil, err
	}
	tree, err := btree.Create(pool, clock, tableID, storage.MetaPageID+1)
	if err != nil {
		return nil, err
	}
	d := &DC{disk: disk, pool: pool, log: log, tree: tree, rec: rec, shard: sh}
	d.wire()
	d.rec.SetEnabled(false) // bulk-load mode: no tracking yet
	return d, nil
}

// Open attaches a DC to an existing disk using the boot metadata page
// (the restart path; recovery follows), logging as shard sh.
func Open(clock *sim.Clock, disk storage.Device, log *wal.Log, cacheCapacity int, sh wal.ShardID, cfg Config) (*DC, error) {
	pool, err := buffer.New(disk, cacheCapacity)
	if err != nil {
		return nil, err
	}
	pool.SetCleanerTarget(cfg.CleanerTarget)
	pool.SetCleanerRate(cleanerEvery)
	rec, err := tracker.New(log, sh, cfg.Tracker)
	if err != nil {
		return nil, err
	}
	raw, err := disk.Read(storage.MetaPageID)
	if err != nil {
		return nil, fmt.Errorf("dc: reading boot page: %w", err)
	}
	st, err := decodeMeta(raw)
	if err != nil {
		return nil, err
	}
	tree := btree.Open(pool, clock, st.tree)
	d := &DC{disk: disk, pool: pool, log: log, tree: tree, rec: rec, shard: sh, rsspLSN: st.rsspLSN}
	d.wire()
	d.rec.SetEnabled(false) // recovery enables tracking when done
	return d, nil
}

func (d *DC) wire() {
	d.tree.SetDirtyHook(func(pid storage.PageID, lsn wal.LSN) {
		d.rec.NoteUpdate(pid, lsn)
	})
	d.pool.SetFlushHook(func(pid storage.PageID, _ sim.Time) {
		d.rec.NoteFlush(pid)
	})
	d.pool.SetLogForce(func() wal.LSN { return d.log.Flush() })
}

// StartLogging ends bulk-load mode: the tree's SMOs are logged from now
// on and the ∆/BW trackers run.
func (d *DC) StartLogging() {
	d.tree.SetSMOLogger(smoLogger{log: d.log, shard: d.shard})
	d.rec.SetEnabled(true)
}

// Pool returns the buffer pool (recovery and harness access).
func (d *DC) Pool() *buffer.Pool { return d.pool }

// Tree returns the clustered index.
func (d *DC) Tree() *btree.Tree { return d.tree }

// Disk returns the stable store.
func (d *DC) Disk() storage.Device { return d.disk }

// Recorder returns the ∆/BW recorder.
func (d *DC) Recorder() *tracker.Recorder { return d.rec }

// Read returns a copy of the value under key. A DC holds one table,
// which the session checks; the table argument is ignored and goes
// once benchmark/ stops passing it (ROADMAP's knob audit).
func (d *DC) Read(_ wal.TableID, key uint64) ([]byte, bool, error) {
	return d.tree.Search(key)
}

// ReadRangeFiltered invokes fn for every row with lo ≤ key ≤ hi that
// pred accepts, in key order. pred is pushed down into the B-tree
// iterator: rows failing it never leave the data component. A nil pred
// accepts every row. The value slice is only valid during the call.
func (d *DC) ReadRangeFiltered(lo, hi uint64, pred func(key uint64, val []byte) bool, fn func(key uint64, val []byte) error) error {
	return d.tree.ScanRangeFiltered(lo, hi, pred, fn)
}

// The three logged writes below, and Compensate built on them, are the
// DC's whole write interface. Each takes one descent of the tree: the
// leaf it reaches is changed, then logFn is called with that leaf's PID
// (after any split the write needed) and must append the operation's
// log record and return its LSN, which stamps the leaf. A write that fails logs nothing and leaves the
// leaf as it was; a missing key fails with btree.ErrKeyNotFound, an
// existing one on Insert with btree.ErrKeyExists.

// Patch rewrites the row under key to what patch returns for
// it (btree.Tree.PatchLogged): an update's or a CLR's After, or a
// function returning a whole new row. cur aliases page memory. A row
// that outgrows its leaf is patched again after the split, so patch must
// be pure; an error it returns is returned as is.
func (d *DC) Patch(key uint64, patch func(cur []byte) ([]byte, error), logFn func(pid storage.PageID) wal.LSN) error {
	return d.tree.PatchLogged(key, patch, logFn)
}

// Insert adds the row (key, val).
func (d *DC) Insert(key uint64, val []byte, logFn func(pid storage.PageID) wal.LSN) error {
	return d.tree.InsertLogged(key, val, logFn)
}

// Delete removes the row under key, handing logFn the row it
// removed as well; old aliases page memory and is valid only during the
// call.
func (d *DC) Delete(key uint64, logFn func(pid storage.PageID, old []byte) wal.LSN) error {
	return d.tree.DeleteLogged(key, logFn)
}

// Compensate applies a CLR (wal.Undo) logically, relocating its row by
// key in the one descent that logs it: an undone insert deletes the
// row, an undone delete re-inserts the whole row, and an undone update
// patches the before-middle back in (CLRRec.After).
func (d *DC) Compensate(clr *wal.CLRRec, logFn func(pid storage.PageID) wal.LSN) error {
	switch clr.Kind {
	case wal.CLRUndoInsert:
		return d.Delete(clr.KeyVal, func(pid storage.PageID, _ []byte) wal.LSN { return logFn(pid) })
	case wal.CLRUndoDelete:
		return d.Insert(clr.KeyVal, clr.RestoreVal, logFn)
	case wal.CLRUndoUpdate:
		return d.Patch(clr.KeyVal, clr.After, logFn)
	}
	return fmt.Errorf("dc: CLR of unknown kind %d", clr.Kind)
}

// EOSL receives the TC's end of stable log: it unlocks page flushes up
// to eLSN (write-ahead-log protocol) and updates the TC-LSN the next
// ∆-log record will carry (§4.1).
func (d *DC) EOSL(eLSN wal.LSN) {
	d.pool.SetELSN(eLSN)
	d.rec.NoteEOSL(eLSN)
}

// RSSP performs the DC side of a checkpoint (§4.2):
//
//  1. close the current ∆/BW interval so records straddling the
//     checkpoint carry a TC-LSN greater than rsspLSN;
//  2. flip the checkpoint bit — pages dirtied from here on belong to
//     the next checkpoint (§3.2);
//  3. record the redo-scan-start-point on the log;
//  4. flush every page dirtied before the flip;
//  5. persist the boot metadata page.
//
// On return, no operation with LSN ≤ rsspLSN needs redo.
func (d *DC) RSSP(rsspLSN wal.LSN) error {
	d.rec.ForceEmit()
	d.pool.BeginCheckpointFlip()
	d.log.MustAppend(&wal.RSSPRec{RsspLSN: rsspLSN, ShardID: d.shard})
	if err := d.pool.FlushForCheckpoint(); err != nil {
		return fmt.Errorf("dc: checkpoint flush: %w", err)
	}
	d.rsspLSN = rsspLSN
	if err := d.WriteBootPage(); err != nil {
		return err
	}
	// Durability barrier: the checkpoint's page flushes and boot image
	// must be on stable media before the end-checkpoint record can name
	// this RSSP (a real fsync on a file device; accounting only on the
	// simulated one).
	if err := d.disk.Sync(); err != nil {
		return fmt.Errorf("dc: checkpoint sync: %w", err)
	}
	return nil
}

// StandbyCheckpoint is RSSP's log-silent twin for a warm standby: it
// flushes every applied page and persists applied — the stable-log
// position the replayer has fully applied through — as the boot page's
// redo-scan start point, so a standby restart re-ships only from there.
// Unlike RSSP it appends nothing: a standby's log must remain a byte
// prefix of the primary's, and its ∆/BW trackers are off (no interval
// to close, no checkpoint flip to take). The caller must have EOSL'd
// through applied first so none of these flushes forces the log.
func (d *DC) StandbyCheckpoint(applied wal.LSN) error {
	if err := d.pool.FlushAll(); err != nil {
		return fmt.Errorf("dc: standby checkpoint flush: %w", err)
	}
	d.rsspLSN = applied
	if err := d.WriteBootPage(); err != nil {
		return err
	}
	if err := d.disk.Sync(); err != nil {
		return fmt.Errorf("dc: standby checkpoint sync: %w", err)
	}
	return nil
}

// WriteBootPage persists the metadata page.
func (d *DC) WriteBootPage() error {
	buf := encodeMeta(metaState{tree: d.tree.Meta(), rsspLSN: d.rsspLSN}, d.disk.Config().PageSize)
	if _, err := d.disk.Write(storage.MetaPageID, buf); err != nil {
		return fmt.Errorf("dc: writing boot page: %w", err)
	}
	return nil
}

// LoadRow appends one row to the unlogged bulk load (btree.Loader: the
// table is built, not inserted into). The table must be empty when the
// first row arrives, keys must ascend strictly from call to call, and
// every row must be in before StartLogging; val is copied into its page
// before LoadRow returns. The loader keeps the tree's right spine
// pinned between calls; FinishLoad releases it.
func (d *DC) LoadRow(key uint64, val []byte) error {
	if d.loader == nil {
		l, err := d.tree.NewLoader()
		if err != nil {
			return fmt.Errorf("dc: %w", err)
		}
		d.loader = l
	}
	if err := d.loader.Add(key, val); err != nil {
		return fmt.Errorf("dc: %w", err)
	}
	return nil
}

// FinishLoad completes a bulk load: flush every page, persist the boot
// page and sync the device.
func (d *DC) FinishLoad() error {
	if d.loader != nil {
		d.loader.Finish()
		d.loader = nil
	}
	if err := d.pool.FlushAll(); err != nil {
		return err
	}
	if err := d.WriteBootPage(); err != nil {
		return err
	}
	return d.disk.Sync()
}
