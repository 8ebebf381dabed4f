package tracker

import (
	"math/rand"
	"slices"
	"testing"

	"logrec/internal/storage"
	"logrec/internal/wal"
)

func newRecorder(t *testing.T, cfg Config) (*Recorder, *wal.Log) {
	t.Helper()
	log := wal.NewLog()
	r, err := New(log, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, log
}

// lastDelta scans the log and returns the most recent ∆ record.
func lastDelta(t *testing.T, log *wal.Log) *wal.DeltaRec {
	t.Helper()
	var out *wal.DeltaRec
	for _, rec := range records(t, log) {
		if d, isD := rec.(*wal.DeltaRec); isD {
			out = d
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	log := wal.NewLog()
	if _, err := New(log, 0, Config{FlushBatch: 0, MaxDirty: 1}); err == nil {
		t.Fatal("accepted zero FlushBatch")
	}
	if _, err := New(log, 0, Config{FlushBatch: 1, MaxDirty: 0}); err == nil {
		t.Fatal("accepted zero MaxDirty")
	}
}

// records scans the log and returns its records in log order.
func records(t *testing.T, log *wal.Log) []wal.Record {
	t.Helper()
	log.Flush()
	sc := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	var out []wal.Record
	for {
		rec, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// TestBatchDeltaStandsInForBW: the ∆ that closes a flush batch lists the
// batch's flushes under the FW-LSN the BW would carry, so it is written
// marked as the batch's BW and no BW record follows.
func TestBatchDeltaStandsInForBW(t *testing.T) {
	r, log := newRecorder(t, Config{FlushBatch: 2, MaxDirty: 100})
	r.NoteEOSL(500)
	r.NoteUpdate(10, 600)
	r.NoteUpdate(11, 610)
	r.NoteFlush(10)
	r.NoteEOSL(700)
	r.NoteFlush(11) // batch hit: one ∆, marked
	recs := records(t, log)
	if len(recs) != 1 {
		t.Fatalf("records = %v, want one ∆ standing in for the BW", recs)
	}
	d, ok := recs[0].(*wal.DeltaRec)
	if !ok || !d.BW || d.FWLSN != 500 || !slices.Equal(d.WrittenSet, []storage.PageID{10, 11}) {
		t.Fatalf("record = %+v, want a ∆ marked BW listing [10 11] under FW-LSN 500", recs[0])
	}
	if st := r.Stats(); st.DeltaRecords != 1 || st.BWRecords != 0 || st.DeltaBWs != 1 || st.BWIntervals() != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCapacityDeltaInBatchKeepsBW: a capacity ∆ inside the batch takes
// the batch's first flush, so the ∆ that closes the batch lists less than
// the BW; it is written unmarked, exactly before a standalone BW (§5.2).
func TestCapacityDeltaInBatchKeepsBW(t *testing.T) {
	r, log := newRecorder(t, Config{FlushBatch: 2, MaxDirty: 2})
	r.NoteEOSL(500)
	r.NoteUpdate(10, 600)
	r.NoteFlush(10)       // opens both intervals at FW-LSN 500
	r.NoteUpdate(11, 610) // DirtySet full: a capacity ∆ lists the flush of 10
	r.NoteEOSL(700)
	r.NoteFlush(11) // batch hit: the ∆ lists [11] under 700, the BW [10 11] under 500
	recs := records(t, log)
	var types []wal.Type
	for _, rec := range recs {
		types = append(types, rec.Type())
	}
	if !slices.Equal(types, []wal.Type{wal.TypeDelta, wal.TypeDelta, wal.TypeBW}) {
		t.Fatalf("record order = %v, want [delta delta bw]", types)
	}
	for _, rec := range recs[:2] {
		if rec.(*wal.DeltaRec).BW {
			t.Fatalf("∆ %+v marked as a BW it does not match", rec)
		}
	}
	if bw := recs[2].(*wal.BWRec); bw.FWLSN != 500 || !slices.Equal(bw.WrittenSet, []storage.PageID{10, 11}) {
		t.Fatalf("BW = %+v, want [10 11] under FW-LSN 500", bw)
	}
}

// bwPair is what SQL analysis prunes with: a WrittenSet and its FW-LSN.
type bwPair struct {
	written []storage.PageID
	fw      wal.LSN
}

// TestBWStreamUnchangedByFolding drives seeded random update, flush,
// EOSL and force sequences under every variant, with batches and
// DirtySets small enough that capacity ∆s land inside batches. A
// reference model of the BW tracker alone gives the (WrittenSet,
// FW-LSN) pairs a BW record per batch would carry; the standalone BW
// records and the marked ∆s, in log order, must be exactly those.
func TestBWStreamUnchangedByFolding(t *testing.T) {
	for _, v := range []Variant{DeltaStandard, DeltaPerfect, DeltaReduced} {
		var total Stats
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{Variant: v, FlushBatch: 1 + rng.Intn(4), MaxDirty: 1 + rng.Intn(5)}
			r, log := newRecorder(t, cfg)

			var want []bwPair
			var model bwPair
			emit := func() {
				if len(model.written) > 0 {
					want = append(want, model)
				}
				model = bwPair{}
			}
			var eLSN wal.LSN
			for op := 0; op < 300; op++ {
				switch k := rng.Intn(10); {
				case k < 4:
					// A logged update the perfect variant's DirtyLSNs can
					// point back at.
					lsn := log.MustAppend(&wal.CommitRec{TxnID: wal.OpensTxn})
					r.NoteUpdate(storage.PageID(1+rng.Intn(8)), lsn)
				case k < 7:
					pid := storage.PageID(1 + rng.Intn(8))
					r.NoteFlush(pid)
					if len(model.written) == 0 {
						model.fw = eLSN
					}
					model.written = append(model.written, pid)
					if len(model.written) >= cfg.FlushBatch {
						emit()
					}
				case k < 9:
					if rng.Intn(4) > 0 {
						eLSN += wal.LSN(1 + rng.Intn(50))
					}
					r.NoteEOSL(eLSN)
				default:
					r.ForceEmit()
					emit()
				}
			}
			r.ForceEmit()
			emit()

			var got []bwPair
			for _, rec := range records(t, log) {
				switch x := rec.(type) {
				case *wal.BWRec:
					got = append(got, bwPair{x.WrittenSet, x.FWLSN})
				case *wal.DeltaRec:
					if x.BW {
						got = append(got, bwPair{x.WrittenSet, x.FWLSN})
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%v seed %d: %d BW intervals logged, model has %d", v, seed, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i].written, want[i].written) || got[i].fw != want[i].fw {
					t.Fatalf("%v seed %d: BW interval %d = %+v, model %+v", v, seed, i, got[i], want[i])
				}
			}
			st := r.Stats()
			if st.BWIntervals() != int64(len(want)) || st.BWRecords != log.AppendCount(wal.TypeBW) {
				t.Fatalf("%v seed %d: stats %+v against %d intervals, %d BW records", v, seed, st, len(want), log.AppendCount(wal.TypeBW))
			}
			total.BWRecords += st.BWRecords
			total.DeltaBWs += st.DeltaBWs
		}
		// Both paths ran: batches a ∆ closed alone, and batches that kept
		// their BW record (every one, but for a nil FW-LSN, under reduced).
		if total.BWRecords == 0 || (v != DeltaReduced && total.DeltaBWs == 0) {
			t.Errorf("%v: %d standalone BWs and %d marked ∆s over all seeds", v, total.BWRecords, total.DeltaBWs)
		}
		t.Logf("%v: %d standalone BWs, %d marked ∆s", v, total.BWRecords, total.DeltaBWs)
	}
}

func TestDeltaFieldsStandard(t *testing.T) {
	r, log := newRecorder(t, Config{FlushBatch: 100, MaxDirty: 100})
	r.NoteEOSL(1000)
	r.NoteUpdate(1, 1100) // dirtied before first write
	r.NoteUpdate(2, 1150)
	r.NoteEOSL(1200)
	r.NoteFlush(1) // first write: FW-LSN = 1200, FirstDirty = 2
	r.NoteUpdate(3, 1300)
	r.ForceEmit()

	d := lastDelta(t, log)
	if d == nil {
		t.Fatal("no ∆ record")
	}
	if len(d.DirtySet) != 3 {
		t.Fatalf("DirtySet = %v", d.DirtySet)
	}
	if d.FWLSN != 1200 {
		t.Fatalf("FW-LSN = %v, want 1200 (eLSN at first flush)", d.FWLSN)
	}
	if d.FirstDirty != 2 {
		t.Fatalf("FirstDirty = %d, want 2 (index of first dirty after first write)", d.FirstDirty)
	}
	if d.TCLSN != 1200 {
		t.Fatalf("TC-LSN = %v, want 1200 (latest EOSL)", d.TCLSN)
	}
	if len(d.WrittenSet) != 1 || d.WrittenSet[0] != 1 {
		t.Fatalf("WrittenSet = %v", d.WrittenSet)
	}
	if len(d.DirtyLSNs) != 0 {
		t.Fatal("standard variant logged DirtyLSNs")
	}
}

func TestDeltaNoFlushInterval(t *testing.T) {
	// Without any flush there is no FW-LSN; every entry counts as
	// "before the first write" so analysis assigns prev-∆ TC-LSN.
	r, log := newRecorder(t, Config{FlushBatch: 100, MaxDirty: 100})
	r.NoteEOSL(700)
	r.NoteUpdate(1, 710)
	r.NoteUpdate(2, 720)
	r.ForceEmit()
	d := lastDelta(t, log)
	if d.FWLSN != wal.NilLSN {
		t.Fatalf("FW-LSN = %v, want nil", d.FWLSN)
	}
	if int(d.FirstDirty) != len(d.DirtySet) {
		t.Fatalf("FirstDirty = %d, want %d (everything before first write)", d.FirstDirty, len(d.DirtySet))
	}
}

func TestSegmentDedupe(t *testing.T) {
	// A page updated repeatedly within one segment is captured once;
	// re-dirtying after the first write captures it again so analysis
	// advances its effective lastLSN to FW-LSN (§4.2).
	r, log := newRecorder(t, Config{FlushBatch: 100, MaxDirty: 100})
	r.NoteEOSL(100)
	r.NoteUpdate(5, 110)
	r.NoteUpdate(5, 120)
	r.NoteUpdate(5, 130)
	r.NoteFlush(5)       // first write
	r.NoteUpdate(5, 140) // re-dirtied after its flush: second capture
	r.NoteUpdate(5, 150) // deduped within segment 2
	r.ForceEmit()
	d := lastDelta(t, log)
	if len(d.DirtySet) != 2 {
		t.Fatalf("DirtySet = %v, want exactly 2 captures of page 5", d.DirtySet)
	}
	if d.FirstDirty != 1 {
		t.Fatalf("FirstDirty = %d, want 1", d.FirstDirty)
	}
}

func TestCapacityForcesDelta(t *testing.T) {
	r, log := newRecorder(t, Config{FlushBatch: 1000, MaxDirty: 3})
	r.NoteEOSL(50)
	for pid := storage.PageID(1); pid <= 7; pid++ {
		r.NoteUpdate(pid, wal.LSN(100+pid))
	}
	log.Flush()
	if got := log.AppendCount(wal.TypeDelta); got != 2 {
		t.Fatalf("∆ records = %d, want 2 (capacity 3, 7 distinct pages)", got)
	}
	if got := r.Stats().CapacityDeltas; got != 2 {
		t.Fatalf("CapacityDeltas = %d", got)
	}
	// Correctness requirement (§4.1): every dirtied page captured.
	sc := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	seen := make(map[storage.PageID]bool)
	for {
		rec, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if d, isD := rec.(*wal.DeltaRec); isD {
			for _, pid := range d.DirtySet {
				seen[pid] = true
			}
		}
	}
	r.ForceEmit()
	log.Flush()
	sc2 := log.NewScanner(wal.FirstLSN(), nil, wal.ScanCost{})
	for {
		rec, _, ok, err := sc2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if d, isD := rec.(*wal.DeltaRec); isD {
			for _, pid := range d.DirtySet {
				seen[pid] = true
			}
		}
	}
	for pid := storage.PageID(1); pid <= 7; pid++ {
		if !seen[pid] {
			t.Fatalf("page %d dirtied but never captured in a ∆ record", pid)
		}
	}
}

func TestPerfectVariantLogsDirtyLSNs(t *testing.T) {
	r, log := newRecorder(t, Config{Variant: DeltaPerfect, FlushBatch: 100, MaxDirty: 100})
	// The LSNs of two records the log holds: a ∆ record can only point
	// back at what was appended before it.
	a := log.MustAppend(&wal.UpdateRec{TxnID: wal.OpensTxn, KeyVal: 1, NewVal: []byte("v"), PageID: 1})
	b := log.MustAppend(&wal.UpdateRec{TxnID: wal.TxnID(a), KeyVal: 2, NewVal: []byte("v"), PageID: 2, PrevLSN: a})
	r.NoteEOSL(a)
	r.NoteUpdate(1, a)
	r.NoteUpdate(2, b)
	r.ForceEmit()
	d := lastDelta(t, log)
	if len(d.DirtyLSNs) != 2 || d.DirtyLSNs[0] != a || d.DirtyLSNs[1] != b {
		t.Fatalf("DirtyLSNs = %v, want [%v %v]", d.DirtyLSNs, a, b)
	}
}

func TestReducedVariantOmitsFWAndFirstDirty(t *testing.T) {
	r, log := newRecorder(t, Config{Variant: DeltaReduced, FlushBatch: 100, MaxDirty: 100})
	r.NoteEOSL(10)
	r.NoteUpdate(1, 11)
	r.NoteFlush(1)
	r.NoteUpdate(2, 22)
	r.ForceEmit()
	d := lastDelta(t, log)
	if d.FWLSN != wal.NilLSN {
		t.Fatalf("reduced variant logged FW-LSN %v", d.FWLSN)
	}
	if int(d.FirstDirty) != len(d.DirtySet) {
		t.Fatalf("reduced FirstDirty = %d, want %d", d.FirstDirty, len(d.DirtySet))
	}
}

func TestDisabledRecorderCapturesNothing(t *testing.T) {
	r, log := newRecorder(t, Config{FlushBatch: 1, MaxDirty: 1})
	r.SetEnabled(false)
	r.NoteUpdate(1, 10)
	r.NoteFlush(1)
	r.ForceEmit()
	log.Flush()
	if log.AppendCount(wal.TypeDelta)+log.AppendCount(wal.TypeBW) != 0 {
		t.Fatal("disabled recorder logged records")
	}
}

func TestEOSLMonotone(t *testing.T) {
	r, log := newRecorder(t, Config{FlushBatch: 100, MaxDirty: 100})
	r.NoteEOSL(500)
	r.NoteEOSL(300) // stale: ignored
	r.NoteUpdate(1, 501)
	r.ForceEmit()
	if d := lastDelta(t, log); d.TCLSN != 500 {
		t.Fatalf("TC-LSN = %v, want 500", d.TCLSN)
	}
}

func TestBWFWLSNIsELSNAtFirstFlush(t *testing.T) {
	r, log := newRecorder(t, Config{Variant: DeltaReduced, FlushBatch: 2, MaxDirty: 100})
	r.NoteEOSL(100)
	r.NoteFlush(1) // first flush of BW interval: FW = 100
	r.NoteEOSL(200)
	r.NoteFlush(2) // batch complete; the reduced ∆'s nil FW-LSN keeps the BW
	for _, rec := range records(t, log) {
		if bw, isBW := rec.(*wal.BWRec); isBW {
			if bw.FWLSN != 100 {
				t.Fatalf("BW FW-LSN = %v, want 100", bw.FWLSN)
			}
			if len(bw.WrittenSet) != 2 {
				t.Fatalf("BW WrittenSet = %v", bw.WrittenSet)
			}
			return
		}
	}
	t.Fatal("no BW record found")
}

func TestVariantStrings(t *testing.T) {
	for v, want := range map[Variant]string{
		DeltaStandard: "standard",
		DeltaPerfect:  "perfect",
		DeltaReduced:  "reduced",
	} {
		if v.String() != want {
			t.Fatalf("String(%d) = %q", v, v.String())
		}
	}
}
