// Package logrec is a from-scratch Go reproduction of
//
//	David Lomet, Kostas Tzoumas, Michael Zwilling.
//	"Implementing Performance Competitive Logical Recovery."
//	PVLDB 4(7), 2011 (VLDB 2011).
//
// It provides a Deuteronomy-style storage engine split into a
// transactional component (TC: transactions, logical locking, logical
// logging — no page IDs on the log) and a data component (DC: B-tree,
// buffer pool, page storage), five crash-recovery implementations for
// side-by-side comparison over one shared log, and the paper's full
// experiment harness.
//
// # Quick start
//
// The package's Example loads a table, commits a transaction through a
// Session (Engine.NewSessionManager, then NewSession per client),
// checkpoints, crashes with a transaction in flight, and recovers the
// crash by every method; go test runs it and checks its output.
//
// # Recovery methods (§5.2 of the paper)
//
//	Log0 — basic logical redo (Algorithm 2)
//	Log1 — logical redo + DPT from ∆-log records (Algorithms 4, 5)
//	Log2 — Log1 + index preload and PF-list prefetch (Appendix A)
//	SQL1 — physiological (ARIES/SQL Server) redo + analysis DPT (Algorithms 3, 1)
//	SQL2 — SQL1 + log-driven read-ahead
//
// By default engines run over a deterministic virtual clock and a
// simulated disk, so recovery times are reproducible; see ARCHITECTURE
// "Deviations from the paper" for the substitution rationale and README
// "Reproducing the paper's experiments" for how to rerun the paper's
// figures. Set Config.Device = DeviceFile (plus Config.Dir) to back the
// engine with real files instead — real page IO, fsync-backed log
// forces and process-kill-shaped crashes (see README "Running on a
// real disk"). Set Config.Shards = N to range-partition the data
// across N data components behind the one TC and WAL; recovery then
// replays all shards concurrently from the single log (see README
// "Scaling out").
package logrec

import (
	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/exec"
	"logrec/internal/harness"
	"logrec/internal/tc"
	"logrec/internal/tracker"
	"logrec/internal/wal"
	"logrec/internal/workload"
)

// Engine is a running TC+DC database over a virtual clock.
type Engine = engine.Engine

// Config parameterises an engine.
type Config = engine.Config

// CrashState is the stable state surviving a crash; fork it with
// Recover as many times as you like.
type CrashState = engine.CrashState

// DeviceKind selects the storage backend implementation.
type DeviceKind = engine.DeviceKind

// Device modes for Config.Device.
const (
	// DeviceSim is the default simulated disk (deterministic virtual
	// time).
	DeviceSim = engine.DeviceSim
	// DeviceFile backs the engine with real files under Config.Dir.
	DeviceFile = engine.DeviceFile
)

// New creates an engine over an empty database.
func New(cfg Config) (*Engine, error) { return engine.New(cfg) }

// DefaultConfig returns the paper-proportional defaults.
func DefaultConfig() Config { return engine.DefaultConfig() }

// Method selects a recovery algorithm.
type Method = core.Method

// The five recovery methods of the paper's §5.2.
const (
	Log0 = core.Log0
	Log1 = core.Log1
	Log2 = core.Log2
	SQL1 = core.SQL1
	SQL2 = core.SQL2
)

// Methods returns all five methods in the paper's presentation order.
func Methods() []Method { return core.Methods() }

// Options sets a recovery run's redo and undo widths; the zero value is
// the paper's inline run. Everything else comes from the crashed
// engine's Config.
type Options = core.Options

// Metrics reports a recovery run's phase times and IO behaviour.
type Metrics = core.Metrics

// DefaultOptions returns the inline widths, the zero Options.
func DefaultOptions(cfg Config) Options { return core.DefaultOptions(cfg) }

// Recover replays a crash under the chosen method and returns a fully
// recovered, usable engine plus metrics.
func Recover(cs *CrashState, m Method, opt Options) (*Engine, *Metrics, error) {
	return core.Recover(cs, m, opt)
}

// DeltaVariant selects ∆-log record fidelity (Appendix D).
type DeltaVariant = tracker.Variant

// ∆-record variants (Appendix D).
const (
	DeltaStandard = tracker.DeltaStandard
	DeltaPerfect  = tracker.DeltaPerfect
	DeltaReduced  = tracker.DeltaReduced
)

// ExperimentConfig parameterises a crash-recovery experiment.
type ExperimentConfig = harness.Config

// CrashResult is a built crash plus its verification oracle.
type CrashResult = harness.CrashResult

// DefaultExperimentConfig returns the paper's experiment setup at the
// repository's default scale.
func DefaultExperimentConfig() ExperimentConfig { return harness.DefaultConfig() }

// BuildCrash drives the paper's workload to its crash condition.
func BuildCrash(cfg ExperimentConfig) (*CrashResult, error) { return harness.BuildCrash(cfg) }

// RunRecovery recovers a crash under one method and verifies the
// recovered state against the oracle.
func RunRecovery(res *CrashResult, m Method, opt Options) (*Metrics, error) {
	return harness.RunRecovery(res, m, opt)
}

// RunAll recovers the same crash under every method.
func RunAll(res *CrashResult, opt Options) (map[Method]*Metrics, error) {
	return harness.RunAll(res, opt)
}

// WorkloadConfig parameterises the paper's update workload.
type WorkloadConfig = workload.Config

// SessionManager multiplexes concurrent client sessions over one TC;
// obtain one with Engine.NewSessionManager.
type SessionManager = tc.SessionManager

// Session is one client's transactional handle (single goroutine per
// session, N sessions in parallel).
type Session = tc.Session

// GroupCommitStats reports group-commit batching (flushes,
// records-per-flush).
type GroupCommitStats = wal.GroupCommitStats

// Typed executor layer (the client API; the raw Session point ops
// above remain the documented low-level plane):
//
//	schema := logrec.MustSchema(
//		logrec.Column{Name: "owner", Type: logrec.TString},
//		logrec.Column{Name: "balance", Type: logrec.TInt64},
//	)
//	ex := logrec.NewExecutor(mgr.NewSession(), cfg.TableID, schema)
//	err = ex.Insert(42, "alice", int64(100))
//	rows, err := ex.Scan(0, 99).Where("balance", logrec.Ge, int64(50)).Rows()

// Executor runs typed operations — point ops, operator-tree queries
// and multi-op transactions — against one table through a session.
type Executor = exec.Executor

// Schema is an ordered list of typed columns plus the row codec.
type Schema = exec.Schema

// Column is one named, typed column in a Schema.
type Column = exec.Column

// ColType is a column's value type.
type ColType = exec.ColType

// Column value types for Schema definitions.
const (
	TUint64  = exec.TUint64
	TInt64   = exec.TInt64
	TFloat64 = exec.TFloat64
	TBool    = exec.TBool
	TString  = exec.TString
	TBytes   = exec.TBytes
)

// ExecRow is one typed query result row.
type ExecRow = exec.Row

// ExecQuery is a lazily built operator tree (Scan · Where · Filter ·
// Project · Limit) over an executor's table.
type ExecQuery = exec.Query

// CmpOp is a Where comparison operator.
type CmpOp = exec.CmpOp

// Where comparison operators.
const (
	Eq = exec.Eq
	Ne = exec.Ne
	Lt = exec.Lt
	Le = exec.Le
	Gt = exec.Gt
	Ge = exec.Ge
)

// TableID names a table (Config.TableID is the engine's single
// clustered table).
type TableID = wal.TableID

// NewExecutor returns a typed executor over sess for table rows shaped
// by schema.
func NewExecutor(sess *Session, table TableID, schema *Schema) *Executor {
	return exec.New(sess, table, schema)
}

// NewSchema builds a schema from cols.
func NewSchema(cols ...Column) (*Schema, error) { return exec.NewSchema(cols...) }

// MustSchema is NewSchema that panics on error (package-level schema
// literals).
func MustSchema(cols ...Column) *Schema { return exec.MustSchema(cols...) }

// Session-layer error sentinels, matchable with errors.Is on any error
// returned by sessions or the typed executor.
var (
	// ErrSessionBusy: Begin on a session whose transaction is active.
	ErrSessionBusy = tc.ErrSessionBusy
	// ErrLockConflict: no-wait lock denial; abort and retry.
	ErrLockConflict = tc.ErrLockConflict
	// ErrTxnNotActive: operation on a finished or unknown transaction.
	ErrTxnNotActive = tc.ErrTxnNotActive
	// ErrKeyNotFound: update or delete of an absent key.
	ErrKeyNotFound = tc.ErrKeyNotFound
)

// Executor-layer error sentinels.
var (
	// ErrSchema: a value, row or reference that does not fit the schema.
	ErrSchema = exec.ErrSchema
	// ErrNoColumn: a reference to an undefined column name.
	ErrNoColumn = exec.ErrNoColumn
)
