package core

import "testing"

// BenchmarkRecover recovers one fixed crash per iteration under each
// method: 4,000 committed two-update transactions and one loser over a
// cached 2,000-row table, never checkpointed, so the redo window is the
// whole log. Allocations are reported with the time, so the per-record
// cost of the transaction table and the replay loop shows in both.
func BenchmarkRecover(b *testing.B) {
	cfg := testConfig(3000)
	cs, _ := buildCrash(b, cfg, 2000, 4000, 2, 1<<30, 7, true)
	opt := DefaultOptions(cfg)
	for _, m := range Methods() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Recover(cs, m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
