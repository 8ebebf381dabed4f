package engine

import (
	"bytes"
	"fmt"
	"testing"

	"logrec/internal/dc"
	"logrec/internal/sim"
	"logrec/internal/storage"
	"logrec/internal/wal"
)

// TestShardedLoadEqualsPerShardInserts: a 4-shard Engine.Load leaves on
// every shard's device exactly the tree pages a stand-alone DC gets from
// row-at-a-time tree.Insert of that shard's rows — on the simulated and
// the file device, and on a standby (whose Load stops after the flush,
// so its boot page is comparable too).
func TestShardedLoadEqualsPerShardInserts(t *testing.T) {
	const rows, shards = 20000, 4
	valFn := func(k uint64) []byte { return []byte(fmt.Sprintf("row-%08d-%0*d", k, int(k%23), 0)) }
	for _, tc := range []struct {
		name    string
		device  DeviceKind
		standby bool
	}{
		{"sim", DeviceSim, false},
		{"file", DeviceFile, false},
		{"standby", DeviceSim, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CachePages = shards * 32
			cfg.Shards = shards
			cfg.KeySpan = rows
			cfg.Device = tc.device
			cfg.Standby = tc.standby
			if tc.device == DeviceFile {
				cfg.Dir = t.TempDir()
			}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Load(rows, valFn); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				clock := &sim.Clock{}
				refDisk, err := storage.New(clock, cfg.Disk)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := dc.New(clock, refDisk, wal.NewLog(), cfg.CachePages/shards, cfg.TableID, wal.ShardID(i), cfg.DC)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for k := uint64(0); k < rows; k++ {
					if eng.Set.Locate(k) != wal.ShardID(i) {
						continue
					}
					if err := ref.Tree().Insert(k, valFn(k), wal.NilLSN); err != nil {
						t.Fatal(err)
					}
					n++
				}
				if n == 0 {
					t.Fatalf("shard %d got no rows", i)
				}
				if err := ref.FinishLoad(); err != nil {
					t.Fatal(err)
				}
				meta := eng.DCs[i].Tree().Meta()
				if want := ref.Tree().Meta(); meta != want {
					t.Fatalf("shard %d: Meta %+v, row-at-a-time build has %+v", i, meta, want)
				}
				first := storage.MetaPageID + 1
				if tc.standby {
					first = storage.MetaPageID
				}
				for pid := first; pid < meta.NextPID; pid++ {
					got, err := eng.Disks[i].Read(pid)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refDisk.Read(pid)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("shard %d page %d differs from the row-at-a-time build", i, pid)
					}
				}
			}
			if tc.device == DeviceFile {
				eng.Crash() // closes the page files and the WAL
			}
		})
	}
}
