// Command logstats runs the paper's workload and reports the log's
// composition: record counts, bytes and frame-header bytes by type, how
// many pages a ∆ and a BW record list and what a listed page costs, how
// wide the transaction names are (the distance back to a transaction's
// first record), and the share taken by the recovery-preparation
// records (∆-log, BW-log, SMO, checkpoint). It measures what §5.1 calls
// "a very small part of the log", and Appendix D's logging-overhead
// comparison across ∆-record variants.
package main

import (
	"encoding/binary"
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
		count  int64
		bytes  int64
		header int64 // of bytes, the frame headers
	}
	byType := map[wal.Type]*slot{}
	var total slot
	// patch sums, over the update records, what an update costs beyond
	// its fixed fields: the row bytes it leaves alone and the two
	// middles it carries.
	var patch struct{ skip, tail, before, after int64 }
	// fields sums, over the update records, the body bytes each field
	// takes; trail is what is left of the body, the trailing prev and
	// shard. oneLength counts the patches that log one length, leftOut
	// the updates that leave a trailing field out, noTrail those that
	// leave out both.
	var fields struct {
		txn, table, key, ends, lengths, middles, pid, trail int64
		oneLength, leftOut, noTrail                         int64
	}
	// lists sums the page lists of the ∆ and BW records; deltaBWs counts
	// the ∆ records that stand in for their batch's BW record.
	var lists struct{ dirty, dirtyLSNs, deltaWritten, bwWritten, deltaBWs int64 }
	// names sums the transaction names of the records that carry one:
	// how many take 1, 2 and 3 or more bytes, how many open their
	// transaction (distance 0), and the longest distance and its record.
	var names struct {
		width        [3]int64
		bytes, opens int64
		longest      uint64
		longestType  wal.Type
		longestAt    wal.LSN
	}

	// One pass: a record's frame runs to the next record's LSN (the
	// last one's to the end of the log).
	log := res.Crash.Log
	sc := log.NewScanner(log.StartLSN(), nil, wal.ScanCost{})
	var order []wal.Type
	var prev *slot
	var prevRec wal.Record
	var prevLSN wal.LSN
	account := func(to wal.LSN) {
		if prev == nil {
			return
		}
		n, h := int64(to-prevLSN), int64(wal.FrameHeaderSize(int(to-prevLSN)))
		prev.bytes, prev.header = prev.bytes+n, prev.header+h
		total.bytes, total.header = total.bytes+n, total.header+h
		u, ok := prevRec.(*wal.UpdateRec)
		if !ok {
			return
		}
		txn, table, key := varintLen(uint64(prevLSN)-uint64(u.TxnID)), varintLen(uint64(u.TableID)), varintLen(u.KeyVal)
		ends, pid := varintLen(uint64(u.Skip))+varintLen(uint64(u.Tail)), varintLen(uint64(u.PageID))
		middles, lengths := int64(len(u.OldVal)+len(u.NewVal)), varintLen(uint64(len(u.OldVal))<<1)
		if len(u.OldVal) == len(u.NewVal) {
			fields.oneLength++
		} else {
			lengths += varintLen(uint64(len(u.NewVal)))
		}
		trail := n - h - (txn + table + key + ends + lengths + middles + pid)
		fields.txn += txn
		fields.table += table
		fields.key += key
		fields.ends += ends
		fields.lengths += lengths
		fields.middles += middles
		fields.pid += pid
		fields.trail += trail
		var dist uint64
		if u.PrevLSN != wal.NilLSN {
			dist = uint64(prevLSN - u.PrevLSN)
		}
		if trail < varintLen(dist)+varintLen(uint64(u.ShardID)) {
			fields.leftOut++
		}
		if trail == 0 {
			fields.noTrail++
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
		prev, prevRec, prevLSN = s, rec, lsn
		if tr, ok := rec.(wal.Transactional); ok {
			dist := uint64(lsn) - uint64(tr.Txn())
			w := varintLen(dist)
			names.width[min(w, 3)-1]++
			names.bytes += w
			if dist == 0 {
				names.opens++
			}
			if dist > names.longest {
				names.longest, names.longestType, names.longestAt = dist, rec.Type(), lsn
			}
		}
		switch r := rec.(type) {
		case *wal.UpdateRec:
			patch.skip += int64(r.Skip)
			patch.tail += int64(r.Tail)
			patch.before += int64(len(r.OldVal))
			patch.after += int64(len(r.NewVal))
		case *wal.DeltaRec:
			lists.dirty += int64(len(r.DirtySet))
			lists.dirtyLSNs += int64(len(r.DirtyLSNs))
			lists.deltaWritten += int64(len(r.WrittenSet))
			if r.BW {
				lists.deltaBWs++
			}
		case *wal.BWRec:
			lists.bwWritten += int64(len(r.WrittenSet))
		}
	}

	sort.Slice(order, func(i, j int) bool { return byType[order[i]].bytes > byType[order[j]].bytes })

	fmt.Printf("workload: %d rows, %d committed txns, %d updates, %d checkpoints (∆ variant: %s)\n",
		cfg.Workload.Rows, res.TxnsCommitted, res.UpdatesRun, res.CheckpointsRun, *variant)
	fmt.Printf("stable log: %d bytes written, %d records retained\n", res.LogBytes, total.count)
	printRetention(log)
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "record type\tcount\tbytes\tB/record\theader B/record\tshare")
	var auxBytes int64
	for _, t := range order {
		s := byType[t]
		fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f\t%.2f\t%.2f%%\n", t, s.count, s.bytes, float64(s.bytes)/float64(s.count),
			float64(s.header)/float64(s.count), 100*float64(s.bytes)/float64(total.bytes))
		switch t {
		case wal.TypeDelta, wal.TypeBW, wal.TypeSMO, wal.TypeBeginCkpt, wal.TypeEndCkpt, wal.TypeRSSP:
			auxBytes += s.bytes
		}
	}
	tw.Flush()
	fmt.Printf("\nframe headers: %.2f bytes a record, %.2f%% of the log\n",
		float64(total.header)/float64(total.count), 100*float64(total.header)/float64(total.bytes))
	if d := byType[wal.TypeDelta]; d != nil && lists.dirty+lists.deltaWritten > 0 {
		n := float64(d.count)
		fmt.Printf("a ∆ record lists %.1f dirtied and %.1f written pages (and %.1f DirtyLSNs): %.2f bytes a listed page, fixed fields and header included\n",
			float64(lists.dirty)/n, float64(lists.deltaWritten)/n, float64(lists.dirtyLSNs)/n, float64(d.bytes)/float64(lists.dirty+lists.deltaWritten))
	}
	if b := byType[wal.TypeBW]; b != nil && lists.bwWritten > 0 {
		fmt.Printf("a BW record lists %.1f written pages: %.2f bytes a listed page, fixed fields and header included\n",
			float64(lists.bwWritten)/float64(b.count), float64(b.bytes)/float64(lists.bwWritten))
	}
	var bws int64
	if b := byType[wal.TypeBW]; b != nil {
		bws = b.count
	}
	fmt.Printf("flush batches: %d closed by a ∆ record standing in for the BW record, %d by a standalone BW record\n",
		lists.deltaBWs, bws)
	if u := byType[wal.TypeUpdate]; u != nil {
		n := float64(u.count)
		fmt.Printf("\nan update is a patch: on average it skips %.1f row bytes, keeps a %.1f-byte tail,\nand carries a %.1f-byte before-middle and a %.1f-byte after-middle\n",
			float64(patch.skip)/n, float64(patch.tail)/n, float64(patch.before)/n, float64(patch.after)/n)
		per := func(v int64) float64 { return float64(v) / n }
		fmt.Printf("bytes an update spends on each field: txn %.2f, table %.2f, key %.2f, skip+tail %.2f, lengths %.2f,\nmiddles %.2f, pid %.2f, trailing prev/shard %.2f, frame header %.2f (%.2f in all)\n",
			per(fields.txn), per(fields.table), per(fields.key), per(fields.ends), per(fields.lengths),
			per(fields.middles), per(fields.pid), per(fields.trail), per(u.header), per(u.bytes))
		fmt.Printf("%d of %d updates log one patch length; %d leave a trailing field out, %d both prev and shard\n",
			fields.oneLength, u.count, fields.leftOut, fields.noTrail)
	}
	if n := names.width[0] + names.width[1] + names.width[2]; n > 0 {
		pct := func(v int64) float64 { return 100 * float64(v) / float64(n) }
		fmt.Printf("\ntxn field (distance back to the txn's first record) in %d records: 1 B %d (%.1f%%), 2 B %d (%.1f%%), ≥3 B %d (%.1f%%); %.2f B a record\n",
			n, names.width[0], pct(names.width[0]), names.width[1], pct(names.width[1]), names.width[2], pct(names.width[2]), float64(names.bytes)/float64(n))
		fmt.Printf("records that open their transaction (distance 0): %d (%.1f%%)\n", names.opens, pct(names.opens))
		fmt.Printf("longest name distance: %d bytes, by the %v record at %d\n", names.longest, names.longestType, names.longestAt)
	}
	fmt.Printf("\nrecovery-preparation records (∆+BW+SMO+ckpt+RSSP): %d bytes = %.2f%% of the log\n(what §5.1 calls a very small part of it)\n",
		auxBytes, 100*float64(auxBytes)/float64(total.bytes))
}

// varintLen is how many bytes the log spends on v.
func varintLen(v uint64) int64 {
	var b [binary.MaxVarintLen64]byte
	return int64(binary.PutUvarint(b[:], v))
}

// printRetention reports what the crashed log still holds: checkpoints
// release the segments below their redo scan start, so the composition
// tables describe the retained range, not everything ever written.
func printRetention(log *wal.Log) {
	start, end := log.StartLSN(), log.EndLSN()
	fmt.Printf("retained: LSN %d–%d (%d bytes) in %d segments; %d bytes released\n",
		start, end, int64(end-start), log.Segments(), int64(start-wal.FirstLSN()))
}
