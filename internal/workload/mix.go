// YCSB-style operation mixes. The point-op generator in workload.go
// reproduces the paper's §5.2 update transactions; this file grows the
// package into a benchmark-shaped driver: weighted mixes of reads,
// updates, inserts, range scans and read-modify-writes over a large
// key space. Insert keys stride per client so concurrent generators
// never collide; every other op draws from the configured uniform or
// zipfian distribution.

package workload

import (
	"fmt"
	"math/rand"
)

// Additional operation kinds generated by mixes (extending OpUpdate
// and OpRead from the point-op generator).
const (
	// OpInsert adds a fresh row at a generator-unique key.
	OpInsert OpKind = 2
	// OpScan reads a key range of ScanLen keys starting at Key.
	OpScan OpKind = 3
	// OpRMW reads a key then updates it in the same transaction
	// (YCSB workload F).
	OpRMW OpKind = 4
)

func (k OpKind) String() string {
	switch k {
	case OpUpdate:
		return "update"
	case OpRead:
		return "read"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	}
	return "unknown"
}

// Mix is a weighted operation mix; the fractions must sum to 1.
type Mix struct {
	// Read is the fraction of point reads.
	Read float64
	// Update is the fraction of point updates.
	Update float64
	// Insert is the fraction of inserts of fresh keys.
	Insert float64
	// Scan is the fraction of short range scans.
	Scan float64
	// RMW is the fraction of read-modify-write operations.
	RMW float64
}

func (m Mix) String() string {
	return fmt.Sprintf("r%.2f/u%.2f/i%.2f/s%.2f/rmw%.2f", m.Read, m.Update, m.Insert, m.Scan, m.RMW)
}

func (m Mix) sum() float64 { return m.Read + m.Update + m.Insert + m.Scan + m.RMW }

// MixConfig parameterises a MixGenerator.
type MixConfig struct {
	// Keys is the loaded key-space size; reads, updates, scans and
	// RMWs draw start keys from [0, Keys).
	Keys uint64
	// Mix weights the operation kinds; fractions must sum to 1.
	Mix Mix
	// Dist is the key distribution (Uniform or Zipf).
	Dist Distribution
	// ZipfS is the zipfian skew (>1), used when Dist == Zipf.
	ZipfS float64
	// MaxScanLen caps scan length; each scan covers 1..MaxScanLen
	// keys, drawn uniformly.
	MaxScanLen int
	// InsertBase is the first insert key this generator produces.
	// Point it past the loaded key space.
	InsertBase uint64
	// InsertStride spaces consecutive insert keys. Give concurrent
	// clients distinct bases modulo a shared stride (base = Keys +
	// client, stride = clients) and their inserts never collide.
	InsertStride uint64
	// Seed makes the stream reproducible.
	Seed int64
}

func (c MixConfig) validate() error {
	if c.Keys == 0 {
		return fmt.Errorf("workload: Keys must be positive")
	}
	if s := c.Mix.sum(); s < 0.999 || s > 1.001 {
		return fmt.Errorf("workload: mix fractions sum to %g, want 1", s)
	}
	if c.Mix.Read < 0 || c.Mix.Update < 0 || c.Mix.Insert < 0 || c.Mix.Scan < 0 || c.Mix.RMW < 0 {
		return fmt.Errorf("workload: negative mix fraction in %v", c.Mix)
	}
	if c.Mix.Scan > 0 && c.MaxScanLen < 1 {
		return fmt.Errorf("workload: MaxScanLen must be at least 1 with scans in the mix")
	}
	if c.Mix.Insert > 0 && c.InsertStride == 0 {
		return fmt.Errorf("workload: InsertStride must be positive with inserts in the mix")
	}
	if c.Dist == Zipf && c.ZipfS <= 1 {
		return fmt.Errorf("workload: ZipfS must exceed 1, got %g", c.ZipfS)
	}
	return nil
}

// MixOp is one operation drawn from a mix.
type MixOp struct {
	// Kind is the operation kind.
	Kind OpKind
	// Key is the target key (scan start key for OpScan).
	Key uint64
	// ScanLen is the number of keys the scan covers (OpScan only).
	ScanLen int
}

// MixGenerator produces a deterministic YCSB-style operation stream.
// One goroutine drives a generator; concurrent clients each build
// their own with distinct seeds and insert bases.
type MixGenerator struct {
	cfg        MixConfig
	rng        *rand.Rand
	zipf       *rand.Zipf
	nextInsert uint64
}

// NewMixGenerator validates cfg and builds a generator.
func NewMixGenerator(cfg MixConfig) (*MixGenerator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &MixGenerator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), nextInsert: cfg.InsertBase}
	if cfg.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, cfg.Keys-1)
	}
	return g, nil
}

// NextKey draws a key in [0, Keys) from the configured distribution.
func (g *MixGenerator) NextKey() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64()
	}
	return uint64(g.rng.Int63n(int64(g.cfg.Keys)))
}

// Next draws the next operation.
func (g *MixGenerator) Next() MixOp {
	r := g.rng.Float64()
	m := g.cfg.Mix
	switch {
	case r < m.Read:
		return MixOp{Kind: OpRead, Key: g.NextKey()}
	case r < m.Read+m.Update:
		return MixOp{Kind: OpUpdate, Key: g.NextKey()}
	case r < m.Read+m.Update+m.Insert:
		k := g.nextInsert
		g.nextInsert += g.cfg.InsertStride
		return MixOp{Kind: OpInsert, Key: k}
	case r < m.Read+m.Update+m.Insert+m.Scan:
		return MixOp{Kind: OpScan, Key: g.NextKey(), ScanLen: 1 + g.rng.Intn(g.cfg.MaxScanLen)}
	default:
		return MixOp{Kind: OpRMW, Key: g.NextKey()}
	}
}
