// Command logstats runs the paper's workload and reports the log's
// composition: record counts, bytes and frame-header bytes by type, how
// many pages a ∆ and a BW record list, what a listed page costs and how
// a ∆ record's bytes split between its lists and its fixed fields, what
// an update spends on each field and how many updates log a tail, what a
// commit or abort costs, how wide the transaction names are (the
// distance back to a transaction's first record), and the share taken by
// the recovery-preparation records (∆-log, BW-log, SMO, checkpoint). It measures what §5.1 calls
// "a very small part of the log", and Appendix D's logging-overhead
// comparison across ∆-record variants.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
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
	st, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logstats: %v\n", err)
		os.Exit(1)
	}
	st.report(os.Stdout, *variant)
}

// slot sums the frames of one record type.
type slot struct {
	count  int64
	bytes  int64
	header int64 // of bytes, the frame headers
}

// The parts an update record's frame is made of, in the order the
// body logs them; updateFields names them. Together they are the
// whole frame, which the test of this command checks.
const (
	fieldTxn = iota
	fieldKey
	fieldSkip
	fieldLengths
	fieldMiddles
	fieldTail
	fieldPID
	fieldTrail
	fieldHeader
	numFields
)

var updateFields = [numFields]string{"txn", "key", "skip", "lengths", "middles", "tail", "pid", "trailing prev/shard", "frame header"}

// stats is what one pass over a crashed log measures.
type stats struct {
	cfg    harness.Config
	res    *harness.CrashResult
	byType map[wal.Type]*slot
	order  []wal.Type // by bytes, largest first
	total  slot
	// patch sums, over the update records, what an update costs beyond
	// its fixed fields: the row bytes it leaves alone before the middles
	// (and after them, for the updates that change the row's length and
	// so log a tail) and the two middles it carries.
	patch struct{ skip, tail, before, after int64 }
	// fields sums, over the update records, the bytes each of
	// updateFields takes. oneLength counts the patches that log one
	// length (and no tail), leftOut the updates that leave a trailing
	// field out, noTrail those that leave out both.
	fields                      [numFields]int64
	oneLength, leftOut, noTrail int64
	// lists sums the page lists of the ∆ and BW records; deltaBWs counts
	// the ∆ records that stand in for their batch's BW record.
	lists struct{ dirty, dirtyLSNs, deltaWritten, bwWritten, deltaBWs int64 }
	// deltaBytes splits the ∆ records' frames: the DirtySet and the
	// WrittenSet with their counts, the DirtyLSNs (perfect variant) with
	// theirs, and what is left — FW-LSN, FirstDirty, TC-LSN, the shard and
	// the frame header.
	deltaBytes struct{ dirty, written, dirtyLSNs, rest int64 }
	// names sums the transaction names of the records that carry one:
	// how many take 1, 2 and 3 or more bytes, how many open their
	// transaction (distance 0), and the longest distance and its record.
	names struct {
		width        [3]int64
		bytes, opens int64
		longest      uint64
		longestType  wal.Type
		longestAt    wal.LSN
	}
}

// measure runs the workload cfg describes to a crash and takes the
// crashed log apart in one pass: a record's frame runs to the next
// record's LSN (the last one's to the end of the log).
func measure(cfg harness.Config) (*stats, error) {
	res, err := harness.BuildCrash(cfg)
	if err != nil {
		return nil, err
	}
	st := &stats{cfg: cfg, res: res, byType: map[wal.Type]*slot{}}
	log := res.Crash.Log
	sc := log.NewScanner(log.StartLSN(), nil, wal.ScanCost{})
	defer sc.Close()
	var prev *slot
	var prevRec wal.Record
	var prevLSN wal.LSN
	account := func(to wal.LSN) {
		if prev == nil {
			return
		}
		n, h := int64(to-prevLSN), int64(wal.FrameHeaderSize(int(to-prevLSN)))
		prev.bytes, prev.header = prev.bytes+n, prev.header+h
		st.total.bytes, st.total.header = st.total.bytes+n, st.total.header+h
		switch r := prevRec.(type) {
		case *wal.DeltaRec:
			st.accountDelta(r, prevLSN, n)
		case *wal.UpdateRec:
			st.accountUpdate(r, prevLSN, h)
		}
	}
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
		if !ok {
			account(log.EndLSN())
			break
		}
		account(lsn)
		s, seen := st.byType[rec.Type()]
		if !seen {
			s = &slot{}
			st.byType[rec.Type()] = s
			st.order = append(st.order, rec.Type())
		}
		s.count++
		st.total.count++
		prev, prevRec, prevLSN = s, rec, lsn
		if tr, ok := rec.(wal.Transactional); ok {
			dist := uint64(lsn) - uint64(tr.Txn())
			w := varintLen(dist)
			st.names.width[min(w, 3)-1]++
			st.names.bytes += w
			if dist == 0 {
				st.names.opens++
			}
			if dist > st.names.longest {
				st.names.longest, st.names.longestType, st.names.longestAt = dist, rec.Type(), lsn
			}
		}
		switch r := rec.(type) {
		case *wal.UpdateRec:
			st.patch.skip += int64(r.Skip)
			st.patch.tail += int64(r.Tail)
			st.patch.before += int64(len(r.OldVal))
			st.patch.after += int64(len(r.NewVal))
		case *wal.DeltaRec:
			st.lists.dirty += int64(len(r.DirtySet))
			st.lists.dirtyLSNs += int64(len(r.DirtyLSNs))
			st.lists.deltaWritten += int64(len(r.WrittenSet))
			if r.BW {
				st.lists.deltaBWs++
			}
		case *wal.BWRec:
			st.lists.bwWritten += int64(len(r.WrittenSet))
		}
	}
	sort.Slice(st.order, func(i, j int) bool { return st.byType[st.order[i]].bytes > st.byType[st.order[j]].bytes })
	return st, nil
}

// accountDelta splits the n-byte frame of the ∆ record d at lsn.
func (st *stats) accountDelta(d *wal.DeltaRec, lsn wal.LSN, n int64) {
	dirty, written := varintLen(uint64(len(d.DirtySet))), varintLen(uint64(len(d.WrittenSet))<<1)
	for _, p := range d.DirtySet {
		dirty += varintLen(uint64(p))
	}
	var last uint64
	for _, p := range d.WrittenSet {
		written += varintLen(uint64(p) - last)
		last = uint64(p)
	}
	var dirtyLSNs int64
	if len(d.DirtyLSNs) > 0 {
		dirtyLSNs = varintLen(uint64(len(d.DirtyLSNs)))
		for _, l := range d.DirtyLSNs {
			var dist uint64
			if l != wal.NilLSN {
				dist = uint64(lsn - l)
			}
			dirtyLSNs += varintLen(dist)
		}
	}
	st.deltaBytes.dirty += dirty
	st.deltaBytes.written += written
	st.deltaBytes.dirtyLSNs += dirtyLSNs
	st.deltaBytes.rest += n - dirty - written - dirtyLSNs
}

// accountUpdate adds what each field of the update u at lsn takes, its
// frame header h included. Every field is sized from the decoded
// record as the encoder writes it, so a field the format gains or loses
// makes the sum differ from the frame.
func (st *stats) accountUpdate(u *wal.UpdateRec, lsn wal.LSN, h int64) {
	f := &st.fields
	f[fieldTxn] += varintLen(uint64(lsn) - uint64(u.TxnID))
	f[fieldKey] += varintLen(u.KeyVal)
	f[fieldSkip] += varintLen(uint64(u.Skip))
	f[fieldMiddles] += int64(len(u.OldVal) + len(u.NewVal))
	f[fieldLengths] += varintLen(uint64(len(u.OldVal)) << 1)
	if len(u.OldVal) == len(u.NewVal) {
		st.oneLength++
	} else {
		f[fieldLengths] += varintLen(uint64(len(u.NewVal)))
		f[fieldTail] += varintLen(uint64(u.Tail))
	}
	f[fieldPID] += varintLen(uint64(u.PageID))
	f[fieldHeader] += h
	// The trailing prev and shard, less the zeros that end them.
	var prev uint64
	if u.PrevLSN != wal.NilLSN {
		prev = uint64(lsn - u.PrevLSN)
	}
	var trail int64
	switch {
	case u.ShardID != 0:
		trail = varintLen(prev) + varintLen(uint64(u.ShardID))
	case prev != 0:
		trail = varintLen(prev)
	default:
		st.noTrail++
	}
	if u.ShardID == 0 {
		st.leftOut++
	}
	f[fieldTrail] += trail
}

// report prints the measurement.
func (st *stats) report(w io.Writer, variant string) {
	cfg, res, byType, total := st.cfg, st.res, st.byType, st.total
	fmt.Fprintf(w, "workload: %d rows, %d committed txns, %d updates, %d checkpoints (∆ variant: %s)\n",
		cfg.Workload.Rows, res.TxnsCommitted, res.UpdatesRun, res.CheckpointsRun, variant)
	fmt.Fprintf(w, "stable log: %d bytes written, %d records retained\n", res.LogBytes, total.count)
	printRetention(w, res.Crash.Log)
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "record type\tcount\tbytes\tB/record\theader B/record\tshare")
	var auxBytes int64
	for _, t := range st.order {
		s := byType[t]
		fmt.Fprintf(tw, "%v\t%d\t%d\t%.1f\t%.2f\t%.2f%%\n", t, s.count, s.bytes, float64(s.bytes)/float64(s.count),
			float64(s.header)/float64(s.count), 100*float64(s.bytes)/float64(total.bytes))
		switch t {
		case wal.TypeDelta, wal.TypeBW, wal.TypeSMO, wal.TypeBeginCkpt, wal.TypeEndCkpt, wal.TypeRSSP:
			auxBytes += s.bytes
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "\nframe headers: %.2f bytes a record, %.2f%% of the log\n",
		float64(total.header)/float64(total.count), 100*float64(total.header)/float64(total.bytes))
	lists, deltaBytes := st.lists, st.deltaBytes
	if d := byType[wal.TypeDelta]; d != nil && lists.dirty+lists.deltaWritten > 0 {
		n := float64(d.count)
		fmt.Fprintf(w, "a ∆ record lists %.1f dirtied and %.1f written pages (and %.1f DirtyLSNs): %.2f bytes a listed page, fixed fields and header included\n",
			float64(lists.dirty)/n, float64(lists.deltaWritten)/n, float64(lists.dirtyLSNs)/n, float64(d.bytes)/float64(lists.dirty+lists.deltaWritten))
		pct := func(v int64) float64 { return 100 * float64(v) / float64(d.bytes) }
		fmt.Fprintf(w, "∆ bytes: DirtySet %d (%.1f%%, %.2f B a page), WrittenSet as gaps %d (%.1f%%, %.2f B a page), DirtyLSNs %d (%.1f%%),\nfixed fields, shard and header %d (%.1f%%, %.2f B a record)\n",
			deltaBytes.dirty, pct(deltaBytes.dirty), float64(deltaBytes.dirty)/float64(max(lists.dirty, 1)),
			deltaBytes.written, pct(deltaBytes.written), float64(deltaBytes.written)/float64(max(lists.deltaWritten, 1)),
			deltaBytes.dirtyLSNs, pct(deltaBytes.dirtyLSNs), deltaBytes.rest, pct(deltaBytes.rest), float64(deltaBytes.rest)/n)
	}
	if b := byType[wal.TypeBW]; b != nil && lists.bwWritten > 0 {
		fmt.Fprintf(w, "a BW record lists %.1f written pages: %.2f bytes a listed page, fixed fields and header included\n",
			float64(lists.bwWritten)/float64(b.count), float64(b.bytes)/float64(lists.bwWritten))
	}
	var bws int64
	if b := byType[wal.TypeBW]; b != nil {
		bws = b.count
	}
	fmt.Fprintf(w, "flush batches: %d closed by a ∆ record standing in for the BW record, %d by a standalone BW record\n",
		lists.deltaBWs, bws)
	if u := byType[wal.TypeUpdate]; u != nil {
		n := float64(u.count)
		fmt.Fprintf(w, "\nan update is a patch: on average it skips %.1f row bytes and carries a %.1f-byte before-middle\nand a %.1f-byte after-middle\n",
			float64(st.patch.skip)/n, float64(st.patch.before)/n, float64(st.patch.after)/n)
		fmt.Fprint(w, "bytes an update spends on each field:")
		for i, name := range updateFields {
			sep := ","
			if i == 0 {
				sep = ""
			}
			fmt.Fprintf(w, "%s %s %.2f", sep, name, float64(st.fields[i])/n)
		}
		fmt.Fprintf(w, " (%.2f in all)\n", float64(u.bytes)/n)
		fmt.Fprintf(w, "%d of %d updates log one patch length; %d leave a trailing field out, %d both prev and shard\n",
			st.oneLength, u.count, st.leftOut, st.noTrail)
		if tails := u.count - st.oneLength; tails > 0 {
			fmt.Fprintf(w, "%d updates change the row's length and log a tail: %.2f bytes each, keeping %.1f row bytes on average\n",
				tails, float64(st.fields[fieldTail])/float64(tails), float64(st.patch.tail)/float64(tails))
		} else {
			fmt.Fprintln(w, "no update logs a tail: every patch is in place")
		}
	}
	var ends slot
	for _, t := range []wal.Type{wal.TypeCommit, wal.TypeAbort} {
		if s := byType[t]; s != nil {
			ends.count, ends.bytes, ends.header = ends.count+s.count, ends.bytes+s.bytes, ends.header+s.header
		}
	}
	if ends.count > 0 {
		fmt.Fprintf(w, "commit and abort records: %d, %.2f bytes a record (%.2f of it frame header, the rest the txn field)\n",
			ends.count, float64(ends.bytes)/float64(ends.count), float64(ends.header)/float64(ends.count))
	}
	names := st.names
	if n := names.width[0] + names.width[1] + names.width[2]; n > 0 {
		pct := func(v int64) float64 { return 100 * float64(v) / float64(n) }
		fmt.Fprintf(w, "\ntxn field (distance back to the txn's first record) in %d records: 1 B %d (%.1f%%), 2 B %d (%.1f%%), ≥3 B %d (%.1f%%); %.2f B a record\n",
			n, names.width[0], pct(names.width[0]), names.width[1], pct(names.width[1]), names.width[2], pct(names.width[2]), float64(names.bytes)/float64(n))
		fmt.Fprintf(w, "records that open their transaction (distance 0): %d (%.1f%%)\n", names.opens, pct(names.opens))
		fmt.Fprintf(w, "longest name distance: %d bytes, by the %v record at %d\n", names.longest, names.longestType, names.longestAt)
	}
	fmt.Fprintf(w, "\nrecovery-preparation records (∆+BW+SMO+ckpt+RSSP): %d bytes = %.2f%% of the log\n(what §5.1 calls a very small part of it)\n",
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
func printRetention(w io.Writer, log *wal.Log) {
	start, end := log.StartLSN(), log.EndLSN()
	fmt.Fprintf(w, "retained: LSN %d–%d (%d bytes) in %d segments; %d bytes released\n",
		start, end, int64(end-start), log.Segments(), int64(start-wal.FirstLSN()))
}
