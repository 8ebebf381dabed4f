package replica

import (
	"fmt"
	"testing"

	"logrec/internal/core"
	"logrec/internal/engine"
	"logrec/internal/wal"
)

// BenchmarkReplay times the standby's apply: one Replayer.CatchUp over a
// stream shipped before the timer starts — 6,000 seeded transactions
// (seed 7) on a primary of 1 or 2 shards, ingested into a fresh standby
// of the same geometry with a full pool. ns/op is per data operation
// applied, not per CatchUp.
func BenchmarkReplay(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			primary := newPrimary(b, shards)
			seededTxns(b, primary, 6000, 7)
			from := newStandby(b, primary, nil).Log.FlushedLSN()
			reader := primary.Log.NewShipReader(from)
			var stream []wal.Segment
			for {
				seg, ok, err := reader.Next(1 << 20)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				stream = append(stream, seg)
			}
			reader.Close()

			var ops int64
			var standby *engine.Engine
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				standby = newStandby(b, primary, nil)
				for _, seg := range stream {
					if _, err := standby.Log.AppendStable(seg.From, seg.Data); err != nil {
						b.Fatal(err)
					}
				}
				rp := core.NewReplayer(standby)
				b.StartTimer()
				if err := rp.CatchUp(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ops += rp.Stats().Ops
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op")
			if digest(b, standby) != digest(b, primary) {
				b.Fatal("the standby does not match the primary")
			}
		})
	}
}
