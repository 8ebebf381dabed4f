// Command logstats runs the paper's workload and reports the log's
// composition: record counts and bytes by type, and the share taken by
// the recovery-preparation records (∆-log, BW-log, SMO, checkpoint).
// It quantifies §5.1's claim that "this auxiliary information is a very
// small part of the log", and Appendix D's logging-overhead comparison
// across ∆-record variants.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"logrec/internal/harness"
	"logrec/internal/tracker"
	"logrec/internal/wal"
)

func main() {
	scale := flag.Int("scale", 4, "shrink the experiment by this factor")
	variant := flag.String("variant", "standard", "∆-record variant: standard, perfect or reduced")
	cacheFrac := flag.Float64("cache", 0.16, "cache fraction of the table")
	flag.Parse()

	cfg := harness.DefaultConfig().Scaled(*scale).WithCacheFraction(*cacheFrac)
	switch *variant {
	case "standard":
		cfg.Engine.DC.Tracker.Variant = tracker.DeltaStandard
	case "perfect":
		cfg.Engine.DC.Tracker.Variant = tracker.DeltaPerfect
	case "reduced":
		cfg.Engine.DC.Tracker.Variant = tracker.DeltaReduced
	default:
		fmt.Fprintf(os.Stderr, "logstats: unknown -variant %q\n", *variant)
		os.Exit(2)
	}

	res, err := harness.BuildCrash(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logstats: %v\n", err)
		os.Exit(1)
	}

	type slot struct {
		count int64
		bytes int64
	}
	byType := map[wal.Type]*slot{}
	var total slot
	// patch sums, over the update records, what an update costs beyond
	// its fixed fields: the row bytes it leaves alone and the two
	// middles it carries.
	var patch struct{ skip, tail, before, after int64 }

	// One pass: a record's frame runs to the next record's LSN (the
	// last one's to the end of the log).
	log := res.Crash.Log
	sc := log.NewScanner(log.StartLSN(), nil, wal.ScanCost{})
	var order []wal.Type
	var prev *slot
	var prevLSN wal.LSN
	account := func(to wal.LSN) {
		if prev != nil {
			prev.bytes += int64(to - prevLSN)
			total.bytes += int64(to - prevLSN)
		}
	}
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			fmt.Fprintf(os.Stderr, "logstats: scan: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			account(log.EndLSN())
			break
		}
		account(lsn)
		s, seen := byType[rec.Type()]
		if !seen {
			s = &slot{}
			byType[rec.Type()] = s
			order = append(order, rec.Type())
		}
		s.count++
		total.count++
		prev, prevLSN = s, lsn
		if u, isUpdate := rec.(*wal.UpdateRec); isUpdate {
			patch.skip += int64(u.Skip)
			patch.tail += int64(u.Tail)
			patch.before += int64(len(u.OldVal))
			patch.after += int64(len(u.NewVal))
		}
	}

	sort.Slice(order, func(i, j int) bool { return byType[order[i]].bytes > byType[order[j]].bytes })

	fmt.Printf("workload: %d rows, %d committed txns, %d updates, %d checkpoints (∆ variant: %s)\n",
		cfg.Workload.Rows, res.TxnsCommitted, res.UpdatesRun, res.CheckpointsRun, *variant)
	fmt.Printf("stable log: %d bytes written, %d records retained\n", res.LogBytes, total.count)
	printRetention(log)
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "record type\tcount\tbytes\tB/record\tshare")
	var auxBytes int64
	for _, t := range order {
		s := byType[t]
		fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f\t%.2f%%\n", t, s.count, s.bytes, float64(s.bytes)/float64(s.count), 100*float64(s.bytes)/float64(total.bytes))
		switch t {
		case wal.TypeDelta, wal.TypeBW, wal.TypeSMO, wal.TypeBeginCkpt, wal.TypeEndCkpt, wal.TypeRSSP:
			auxBytes += s.bytes
		}
	}
	tw.Flush()
	if u := byType[wal.TypeUpdate]; u != nil {
		n := float64(u.count)
		fmt.Printf("\nan update is a patch: on average it skips %.1f row bytes, keeps a %.1f-byte tail,\nand carries a %.1f-byte before-middle and a %.1f-byte after-middle\n",
			float64(patch.skip)/n, float64(patch.tail)/n, float64(patch.before)/n, float64(patch.after)/n)
	}
	fmt.Printf("\nrecovery-preparation records (∆+BW+SMO+ckpt+RSSP): %d bytes = %.2f%% of the log\n",
		auxBytes, 100*float64(auxBytes)/float64(total.bytes))
	fmt.Println("(§5.1 calls the auxiliary information a very small part of the log; that was measured against\nwhole-row update records — against patches the same bytes are a larger share of a smaller log)")
}

// printRetention reports what the crashed log still holds: checkpoints
// release the segments below their redo scan start, so the composition
// tables describe the retained range, not everything ever written.
func printRetention(log *wal.Log) {
	start, end := log.StartLSN(), log.EndLSN()
	fmt.Printf("retained: LSN %d–%d (%d bytes) in %d segments; %d bytes released\n",
		start, end, int64(end-start), log.Segments(), int64(start-wal.FirstLSN()))
}
