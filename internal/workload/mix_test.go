package workload

import (
	"math"
	"testing"
)

// testMixConfig returns a four-way mix (all op shapes but RMW) over a
// modest key space.
func testMixConfig() MixConfig {
	return MixConfig{
		Keys:         100_000,
		Mix:          Mix{Read: 0.40, Update: 0.30, Insert: 0.10, Scan: 0.20},
		Dist:         Zipf,
		ZipfS:        1.1,
		MaxScanLen:   100,
		InsertBase:   100_000,
		InsertStride: 1,
		Seed:         1,
	}
}

func TestMixGeneratorFrequencies(t *testing.T) {
	cfg := testMixConfig()
	cfg.Seed = 7
	g, err := NewMixGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	counts := map[OpKind]int{}
	for i := 0; i < n; i++ {
		op := g.Next()
		counts[op.Kind]++
		switch op.Kind {
		case OpScan:
			if op.ScanLen < 1 || op.ScanLen > cfg.MaxScanLen {
				t.Fatalf("scan length %d out of [1,%d]", op.ScanLen, cfg.MaxScanLen)
			}
		case OpInsert:
		default:
			if op.Key >= cfg.Keys {
				t.Fatalf("key %d outside loaded space %d", op.Key, cfg.Keys)
			}
		}
	}
	want := map[OpKind]float64{OpRead: 0.40, OpUpdate: 0.30, OpInsert: 0.10, OpScan: 0.20}
	for kind, frac := range want {
		got := float64(counts[kind]) / n
		if math.Abs(got-frac) > 0.01 {
			t.Errorf("%v frequency %.3f, want %.2f ± .01", kind, got, frac)
		}
	}
}

func TestMixInsertStriding(t *testing.T) {
	seen := map[uint64]int{}
	const clients = 4
	for c := 0; c < clients; c++ {
		cfg := testMixConfig()
		cfg.Mix = Mix{Insert: 1}
		cfg.InsertBase = cfg.Keys + uint64(c)
		cfg.InsertStride = clients
		cfg.Seed = int64(c)
		g, err := NewMixGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			op := g.Next()
			if op.Kind != OpInsert {
				t.Fatalf("pure-insert mix produced %v", op.Kind)
			}
			if op.Key < cfg.Keys {
				t.Fatalf("insert key %d inside loaded space", op.Key)
			}
			seen[op.Key]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("insert key %d drawn %d times across clients", k, n)
		}
	}
}

func TestMixGeneratorDeterminism(t *testing.T) {
	cfg := testMixConfig()
	a, _ := NewMixGenerator(cfg)
	b, _ := NewMixGenerator(cfg)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestMixConfigValidation(t *testing.T) {
	bad := []func(*MixConfig){
		func(c *MixConfig) { c.Keys = 0 },
		func(c *MixConfig) { c.Mix = Mix{Read: 0.5} },
		func(c *MixConfig) { c.MaxScanLen = 0 },
		func(c *MixConfig) { c.InsertStride = 0 },
		func(c *MixConfig) { c.ZipfS = 0.9 },
	}
	for i, mutate := range bad {
		cfg := testMixConfig()
		mutate(&cfg)
		if _, err := NewMixGenerator(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
