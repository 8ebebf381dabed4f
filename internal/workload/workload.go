// Package workload generates the paper's update workloads (§5.2,
// Appendix B): small transactions of ten single-row updates each,
// identified by equality search on the key. The uniform distribution is
// the paper's default — the worst case for redo, maximising distinct
// dirtied pages — with zipfian skew and read mixing available for the
// locality discussion of Appendix B.
package workload

import (
	"fmt"
	"math/rand"
)

// Distribution selects the key-access pattern.
type Distribution int

// Distributions.
const (
	// Uniform keys: the paper's worst-case default.
	Uniform Distribution = iota
	// Zipf skews access toward hot keys, improving page locality and
	// shrinking the DPT (Appendix B).
	Zipf
)

func (d Distribution) String() string {
	if d == Zipf {
		return "zipf"
	}
	return "uniform"
}

// Config parameterises a workload.
type Config struct {
	// Rows is the table size.
	Rows int
	// UpdatesPerTxn is the transaction size (the paper uses 10).
	UpdatesPerTxn int
	// ValueSize is the data attribute's size in bytes.
	ValueSize int
	// Dist is the key distribution.
	Dist Distribution
	// ZipfS is the zipfian skew (>1), used when Dist == Zipf.
	ZipfS float64
	// ReadFraction is the probability an operation is a read instead
	// of an update; reads dilute the cache's update density
	// (Appendix B).
	ReadFraction float64
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig matches the paper's primary workload at the repo's
// default scale.
func DefaultConfig() Config {
	return Config{
		Rows:          400_000,
		UpdatesPerTxn: 10,
		ValueSize:     92,
		Dist:          Uniform,
		ZipfS:         1.1,
		Seed:          1,
	}
}

func (c Config) validate() error {
	if c.Rows <= 0 {
		return fmt.Errorf("workload: Rows must be positive, got %d", c.Rows)
	}
	if c.UpdatesPerTxn <= 0 {
		return fmt.Errorf("workload: UpdatesPerTxn must be positive, got %d", c.UpdatesPerTxn)
	}
	if c.ValueSize < 1 {
		return fmt.Errorf("workload: ValueSize must be at least 1, got %d", c.ValueSize)
	}
	if c.ReadFraction < 0 || c.ReadFraction >= 1 {
		return fmt.Errorf("workload: ReadFraction must be in [0,1), got %g", c.ReadFraction)
	}
	if c.Dist == Zipf && c.ZipfS <= 1 {
		return fmt.Errorf("workload: ZipfS must exceed 1, got %g", c.ZipfS)
	}
	return nil
}

// OpKind distinguishes generated operations.
type OpKind int

// Operation kinds.
const (
	OpUpdate OpKind = iota
	OpRead
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Generator produces a deterministic operation stream.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	// version counts updates, versioning generated values.
	version uint64
}

// NewGenerator validates cfg and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Dist == Zipf {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS, 1, uint64(cfg.Rows-1))
	}
	return g, nil
}

// NextKey draws a key from the configured distribution.
func (g *Generator) NextKey() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64()
	}
	return uint64(g.rng.Intn(g.cfg.Rows))
}

// NextOp draws the next operation.
func (g *Generator) NextOp() Op {
	if g.cfg.ReadFraction > 0 && g.rng.Float64() < g.cfg.ReadFraction {
		return Op{Kind: OpRead, Key: g.NextKey()}
	}
	return Op{Kind: OpUpdate, Key: g.NextKey()}
}

// InitialValue produces the bulk-load value for key.
func (g *Generator) InitialValue(key uint64) []byte {
	return makeValue(key, 0, g.cfg.ValueSize)
}

// UpdateValue produces a fresh, distinguishable value for key and
// advances the version counter.
func (g *Generator) UpdateValue(key uint64) []byte {
	g.version++
	return makeValue(key, g.version, g.cfg.ValueSize)
}

// makeValue renders a self-describing value of exactly size bytes so
// verification failures are diagnosable.
func makeValue(key, version uint64, size int) []byte {
	v := make([]byte, size)
	s := fmt.Sprintf("k%08x.v%08x.", key, version)
	copy(v, s)
	for i := len(s); i < size; i++ {
		v[i] = byte('a' + (int(key)+i)%26)
	}
	return v
}
