// Package engine wires the Deuteronomy components — virtual clock,
// storage devices, shared log, data components and TC — into a runnable
// database engine, and implements the controlled crash that recovery
// experiments start from (§5.1-5.2 of the paper).
//
// Config.Shards = N stands up N range-partitioned data components
// behind one TC and one logical WAL: each shard owns its own device,
// buffer pool and B-tree (in file mode, its own pages.db under a
// per-shard directory), operations route by key through the shard.Set,
// and recovery replays all shards concurrently from the single log.
// The default N=1 engine is the same code with one shard.
//
// Two device modes exist (Config.Device): the default simulated disk,
// where IO costs are modeled on a virtual clock and a crash snapshots
// in-memory structures copy-on-write; and file mode, where pages live
// in real files (storage.FileDisk), the WAL is a directory of segment
// files whose forces fsync (wal.FileBackend), the master record is a
// boot file, and
// a crash is process-kill-shaped — handles close with no flush, and
// recovery reopens whatever the files hold.
package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"logrec/internal/dc"
	"logrec/internal/shard"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/tc"
	"logrec/internal/wal"
)

// DeviceKind selects the storage backend implementation.
type DeviceKind string

// Device modes.
const (
	// DeviceSim is the default: the discrete-event simulated disk.
	DeviceSim DeviceKind = ""
	// DeviceFile backs the engine with real files on a real disk.
	DeviceFile DeviceKind = "file"
)

// Well-known names inside a file-mode engine directory: the page file
// (one per shard directory), the WAL's segment directory and the master
// record.
const (
	pagesFileName  = "pages.db"
	walDirName     = "wal"
	masterFileName = "master"
)

// Config parameterises an engine instance.
type Config struct {
	// Disk is the storage device configuration (page size; latency
	// model for the simulated device; queue depth and block size for
	// both).
	Disk storage.Config
	// DC configures the data component (CPU costs, ∆/BW tracking).
	DC dc.Config
	// ScanCost is the log-read model used by recovery.
	ScanCost wal.ScanCost
	// CachePages is the buffer pool capacity, in pages. The paper's
	// experiments sweep this (§5.2, Figure 2).
	CachePages int
	// TableID names the single clustered table.
	TableID wal.TableID
	// Device selects the storage backend: DeviceSim (default) or
	// DeviceFile.
	Device DeviceKind
	// Dir is the directory holding the WAL, master record and per-shard
	// page files in file mode (created if missing; ignored for
	// DeviceSim).
	Dir string
	// Shards is the number of range-partitioned data components behind
	// the TC (0 and 1 both mean one DC). Each shard owns an independent
	// device, pool and B-tree; the buffer budget CachePages is divided
	// evenly across shards.
	Shards int
	// KeySpan is the key-domain upper bound partitioned evenly across
	// shards (0 = the full uint64 domain). Set it to the expected row
	// count so the initial ranges balance the bulk-loaded table.
	KeySpan uint64
	// RecoveryBudget is the recovery SLO: the target upper bound on
	// replay time after a crash, and the one setting behind it. The
	// background Checkpointer (StartCheckpointer, which refuses an
	// engine without one) estimates how long replaying the current redo
	// window would take (window bytes ÷ measured replay rate, seeded
	// from LastRecovery and refined from the live append rate) and
	// checkpoints whenever the estimate exceeds the budget; it derives
	// its polling cadence from the budget too. A recovery of a crashed
	// engine with a budget and a measured replay rate sizes its redo
	// width to fit it (core.AutoSizeWorkers). Zero: no SLO.
	RecoveryBudget time.Duration
	// Standby builds the engine as a warm standby (replica mode): Load
	// bulk-loads rows but leaves logging off and takes no checkpoint,
	// so the engine's log stays header-only and can ingest the
	// primary's shipped stream as a byte-identical prefix
	// (wal.AppendStable). A standby engine serves no sessions until a
	// core.Replayer promotes it.
	Standby bool
}

// Validate checks the configuration and fills defaulted fields in
// place: Shards 0 → 1, CachePages 0 → the DefaultConfig capacity,
// TableID 0 → 1. It rejects contradictions that previously surfaced as
// misbehavior deep inside the engine: a negative shard count, an
// unknown device kind, DeviceFile without a directory, a key span too
// small for the shard count, and a buffer budget below 8 pages per
// shard. engine.New calls it; tools building configs by hand can call
// it early for better errors.
func (c *Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("engine: Shards must be >= 1, got %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.CachePages < 0 {
		return fmt.Errorf("engine: CachePages must be positive, got %d", c.CachePages)
	}
	if c.CachePages == 0 {
		c.CachePages = DefaultConfig().CachePages
	}
	if c.TableID == 0 {
		c.TableID = 1
	}
	switch c.Device {
	case DeviceSim:
	case DeviceFile:
		if c.Dir == "" {
			return fmt.Errorf("engine: file device needs Config.Dir")
		}
	default:
		return fmt.Errorf("engine: unknown device kind %q", c.Device)
	}
	if c.RecoveryBudget < 0 {
		return fmt.Errorf("engine: RecoveryBudget must be >= 0, got %v", c.RecoveryBudget)
	}
	if c.KeySpan != 0 && c.KeySpan < uint64(c.Shards) {
		return fmt.Errorf("engine: KeySpan %d cannot be partitioned across %d shards (want KeySpan >= Shards, or 0 for the full domain)", c.KeySpan, c.Shards)
	}
	if c.CachePages < 8*c.Shards {
		return fmt.Errorf("engine: CachePages must be at least 8 per shard, got %d for %d shards", c.CachePages, c.Shards)
	}
	return nil
}

// NumShards returns the effective shard count (at least 1).
func (c Config) NumShards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

// shardDir names shard i's directory under the engine dir (file mode).
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// DefaultConfig returns the experiment defaults (see ARCHITECTURE
// "Deviations from the paper" for the scaling relative to the paper's
// 3.5 GB table).
func DefaultConfig() Config {
	return Config{
		Disk:       storage.DefaultConfig(),
		DC:         dc.DefaultConfig(),
		ScanCost:   wal.DefaultScanCost(),
		CachePages: 1600, // ≈16% of the default table's data pages
		TableID:    1,
	}
}

// Engine is a running TC plus N data components over one virtual clock
// and one shared log. Disk and DC alias shard 0 for single-shard tools;
// Disks, DCs and Set are the general N-shard surface.
type Engine struct {
	Clock *sim.Clock
	Disk  storage.Device
	Disks []storage.Device
	Log   *wal.Log
	DC    *dc.DC
	DCs   []*dc.DC
	Set   *shard.Set
	TC    *tc.TC
	Cfg   Config

	// LastRecovery summarises the recovery run that produced this
	// engine (set by core.Recover; nil for a freshly created one). Its
	// measured replay rate seeds the Checkpointer's estimate, so a
	// recovered engine sizes its redo windows from how fast replay
	// actually ran on this hardware.
	LastRecovery *RecoveryStats

	// AppliedLSN is, on a standby, the stable-log position a
	// core.Replayer has applied through; the applier goroutine owns it.
	// A new Replayer over this engine applies only what lies above it:
	// an update is a patch, so delivering it twice is not harmless.
	AppliedLSN wal.LSN

	// mgr is the live session manager (set by NewSessionManager); Stats
	// aggregates its commit and plane counters.
	mgr *tc.SessionManager
}

// New creates an engine over an empty database. The config is
// validated (and defaulted) by Config.Validate first.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumShards()
	clock := &sim.Clock{}
	log := wal.NewLog()
	if cfg.Device == DeviceFile {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: creating %s: %w", cfg.Dir, err)
		}
		be, err := wal.CreateFileBackend(filepath.Join(cfg.Dir, walDirName))
		if err != nil {
			return nil, err
		}
		if err := log.SetBackend(be); err != nil {
			return nil, err
		}
		if err := writeMaster(cfg.Dir, wal.NilLSN); err != nil {
			return nil, err
		}
	}

	disks := make([]storage.Device, n)
	dcs := make([]*dc.DC, n)
	for i := 0; i < n; i++ {
		var (
			disk storage.Device
			err  error
		)
		if cfg.Device == DeviceFile {
			sd := shardDir(cfg.Dir, i)
			if err := os.MkdirAll(sd, 0o755); err != nil {
				return nil, fmt.Errorf("engine: creating %s: %w", sd, err)
			}
			disk, err = storage.NewFileDisk(clock, cfg.Disk, filepath.Join(sd, pagesFileName))
		} else {
			disk, err = storage.New(clock, cfg.Disk)
		}
		if err != nil {
			return nil, err
		}
		d, err := dc.New(clock, disk, log, cfg.CachePages/n, cfg.TableID, wal.ShardID(i), cfg.DC)
		if err != nil {
			return nil, err
		}
		disks[i] = disk
		dcs[i] = d
	}
	set, err := shard.NewSet(shard.DefaultRoutes(n, cfg.KeySpan), dcs)
	if err != nil {
		return nil, err
	}
	e := &Engine{Clock: clock, Disk: disks[0], Disks: disks, Log: log, Set: set, DC: dcs[0], DCs: dcs, Cfg: cfg}
	e.wireTC(tc.New(log, set))
	return e, nil
}

// wireTC installs t as the engine's TC. In file mode its checkpoints
// advance the master record in the engine's own directory.
func (e *Engine) wireTC(t *tc.TC) {
	e.TC = t
	if e.Cfg.Device == DeviceFile {
		dir := e.Cfg.Dir
		t.SetMasterHook(func(lsn wal.LSN) error { return writeMaster(dir, lsn) })
	}
}

// writeMaster persists the master record — the boot-block pointer to
// the latest end-checkpoint record — and fsyncs it.
func writeMaster(dir string, lsn wal.LSN) error {
	buf := encodeMaster(lsn)
	f, err := os.OpenFile(filepath.Join(dir, masterFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("engine: opening master record: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(buf[:], 0); err != nil {
		return fmt.Errorf("engine: writing master record: %w", err)
	}
	return f.Sync()
}

// readMaster reads the master record back.
func readMaster(dir string) (wal.LSN, error) {
	buf, err := os.ReadFile(filepath.Join(dir, masterFileName))
	if err != nil {
		return wal.NilLSN, fmt.Errorf("engine: reading master record: %w", err)
	}
	return decodeMaster(buf)
}

// encodeMaster is the master record's 8 bytes: the LSN, big-endian.
func encodeMaster(lsn wal.LSN) [8]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(lsn))
	return buf
}

// decodeMaster reads a master record, which is exactly 8 bytes: writeMaster
// rewrites those 8 in place, so a file of any other length is not one.
func decodeMaster(buf []byte) (wal.LSN, error) {
	if len(buf) != 8 {
		return wal.NilLSN, fmt.Errorf("engine: master record is %d bytes, want 8", len(buf))
	}
	return wal.LSN(binary.BigEndian.Uint64(buf)), nil
}

// BecomePrimary installs the routing table and TC a promotion built
// (core.Replayer.Promote), rewiring the file-mode master hook so the
// promoted engine's checkpoints land in its own boot file. The standby
// flag is cleared: the engine is now an ordinary primary.
func (e *Engine) BecomePrimary(set *shard.Set, t *tc.TC) {
	e.Set = set
	e.DC = e.DCs[0]
	e.Cfg.Standby = false
	e.wireTC(t)
}

// Recovered assembles the engine a recovery rebuilt from cs over one of
// its Forks: the fork's clock, devices and log, the shards in set and
// the TC over them. In file mode the engine lives in the fork's
// directory — the one its log writes to, whose master record Fork
// seeded with the crash's — so its checkpoints advance that record and
// its own crash recovers what it committed.
func (cs *CrashState) Recovered(clock *sim.Clock, disks []storage.Device, log *wal.Log, set *shard.Set, t *tc.TC) *Engine {
	cfg := cs.Cfg
	if fb, ok := log.Backend().(*wal.FileBackend); ok {
		cfg.Dir = filepath.Dir(fb.Dir())
	}
	e := &Engine{Clock: clock, Disk: disks[0], Disks: disks, Log: log, Set: set, DC: set.DCs()[0], DCs: set.DCs(), Cfg: cfg}
	e.wireTC(t)
	return e
}

// CrashState is everything that survives a crash. In simulated mode
// that is the frozen stable disks (one per shard), the stable prefix of
// the log, and the TC's master record, forked copy-on-write per
// recovery run so several methods can replay the identical crash side
// by side (§5.1's controlled comparison). In file mode it is just the
// directory tree the dead engine left behind: each Fork copies the
// files into a fresh fork directory and reopens them, the on-disk
// analogue of the copy-on-write fork.
type CrashState struct {
	Disks       []storage.Device
	Log         *wal.Log
	LastEndCkpt wal.LSN
	Cfg         Config

	// Dir is the crashed engine's directory in file mode ("" for the
	// simulated device).
	Dir string

	// ReplayRate is the crashed engine's last measured recovery replay
	// rate in bytes/sec (Engine.LastRecovery.ReplayBytesPerSec; 0 when
	// the engine was never recovered or the run was too fast to time).
	// core.Recover's worker auto-sizing consumes it together with
	// Cfg.RecoveryBudget.
	ReplayRate float64

	// mu guards forks; concurrent Forks of one crash state are allowed
	// (side-by-side recovery), matching the mutex-guarded sim path.
	mu    sync.Mutex
	forks int
}

// Crash freezes the engine's stable state and returns it. The engine
// must not be used afterwards: its volatile state (buffer pools, lock
// table, trackers) is conceptually lost. In file mode the crash is
// process-kill-shaped — every shard's page file and the WAL are closed
// as-is, with no flush, no final log force and no checkpoint; a failure
// to close is a harness-environment error and panics.
func (e *Engine) Crash() *CrashState {
	var replayRate float64
	if e.LastRecovery != nil {
		replayRate = e.LastRecovery.ReplayBytesPerSec
	}
	if e.Cfg.Device == DeviceFile {
		for i, disk := range e.Disks {
			if err := disk.(*storage.FileDisk).Close(); err != nil {
				panic(fmt.Sprintf("engine: crash close of shard %d page file: %v", i, err))
			}
		}
		if err := e.Log.CloseBackend(); err != nil {
			panic(fmt.Sprintf("engine: crash close of log file: %v", err))
		}
		master, err := readMaster(e.Cfg.Dir)
		if err != nil {
			panic(fmt.Sprintf("engine: crash: %v", err))
		}
		return &CrashState{
			LastEndCkpt: master,
			Cfg:         e.Cfg,
			Dir:         e.Cfg.Dir,
			ReplayRate:  replayRate,
		}
	}
	for _, disk := range e.Disks {
		disk.Freeze()
	}
	return &CrashState{
		Disks:       e.Disks,
		Log:         e.Log.Snapshot(),
		LastEndCkpt: e.TC.LastEndCkptLSN(),
		Cfg:         e.Cfg,
		ReplayRate:  replayRate,
	}
}

// TearTail corrupts the crashed WAL with a partial record frame past
// the last complete one — the crash interrupted a log force mid-frame.
// Recovery must trim it: wal.OpenLogDir's ErrTruncated path in file
// mode, Log.CloneTrimmed's identical trim for the simulated snapshot.
// Must be called before any Fork.
func (cs *CrashState) TearTail(nBytes int) error {
	if cs.Dir == "" {
		return cs.Log.TearTail(nBytes)
	}
	return wal.TearDir(filepath.Join(cs.Dir, walDirName), nBytes)
}

// Fork creates an independent replay environment over the crash state:
// a fresh clock, independent per-shard devices holding the
// crash-instant pages, and a writable continuation of the stable log.
// Simulated mode forks each disk copy-on-write and clones the log
// snapshot (sealed segments shared, the tail copied and any injected
// torn tail trimmed); file mode copies the shard page files into a fork
// directory under the crash directory, forks the WAL directory
// (forkLogDir), seeds the fork's master record with the crash's and
// reopens them (trimming any torn WAL tail). cachePages is ignored —
// recovery takes the pool size from the crash's Config — and stays
// only because benchmark/ passes it (ROADMAP's knob audit).
func (cs *CrashState) Fork(cachePages int) (*sim.Clock, []storage.Device, *wal.Log, error) {
	clock := &sim.Clock{}
	n := cs.Cfg.NumShards()
	if cs.Dir == "" {
		disks := make([]storage.Device, n)
		for i, d := range cs.Disks {
			disks[i] = d.(*storage.Disk).Fork(clock)
		}
		return clock, disks, cs.Log.CloneTrimmed(), nil
	}
	cs.mu.Lock()
	cs.forks++
	forkDir := filepath.Join(cs.Dir, fmt.Sprintf("fork-%d", cs.forks))
	cs.mu.Unlock()
	if err := os.MkdirAll(forkDir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: creating fork dir: %w", err)
	}
	if err := forkLogDir(filepath.Join(cs.Dir, walDirName), filepath.Join(forkDir, walDirName)); err != nil {
		return nil, nil, nil, fmt.Errorf("engine: forking crash state: %w", err)
	}
	if err := writeMaster(forkDir, cs.LastEndCkpt); err != nil {
		return nil, nil, nil, err
	}
	disks := make([]storage.Device, n)
	for i := 0; i < n; i++ {
		sd := shardDir(forkDir, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, nil, nil, fmt.Errorf("engine: creating fork shard dir: %w", err)
		}
		src := filepath.Join(shardDir(cs.Dir, i), pagesFileName)
		dst := filepath.Join(sd, pagesFileName)
		if err := copyFile(src, dst); err != nil {
			return nil, nil, nil, fmt.Errorf("engine: forking shard %d: %w", i, err)
		}
		disk, err := storage.OpenFileDisk(clock, cs.Cfg.Disk, dst)
		if err != nil {
			return nil, nil, nil, err
		}
		disks[i] = disk
	}
	log, err := wal.OpenLogDir(filepath.Join(forkDir, walDirName))
	if err != nil {
		return nil, nil, nil, err
	}
	return clock, disks, log, nil
}

// forkLogDir populates dst with the segment files of the WAL directory
// src. Only the last segment file is ever written again (trimmed on
// reopen, then appended to), so it is copied; the sealed ones before it
// are immutable and shared by hard link — the on-disk analogue of
// sharing sealed segments between clones — or copied where the file
// system has no links.
func forkLogDir(src, dst string) error {
	// Segment files left in dst by an earlier run would splice into the
	// chain; the fork starts from nothing.
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for i, e := range entries { // ReadDir sorts by name, which is LSN order
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if i < len(entries)-1 && os.Link(from, to) == nil {
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
