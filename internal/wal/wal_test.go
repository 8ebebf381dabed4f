package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"logrec/internal/sim"
	"logrec/internal/storage"
)

// sampleRecords is one record of each shape, to be appended in this
// order to an empty log: every back-pointer is nil or FirstLSN, where
// the first of them lands.
func sampleRecords() []Record {
	first := FirstLSN()
	return []Record{
		&UpdateRec{TxnID: 7, KeyVal: 42, OldVal: []byte("old"), NewVal: []byte("new"), PageID: 99},
		&InsertRec{TxnID: 8, KeyVal: 43, Val: []byte("v"), PageID: 100, PrevLSN: 0},
		&DeleteRec{TxnID: 9, KeyVal: 44, OldVal: []byte("gone"), PageID: 101, PrevLSN: first},
		&CommitRec{TxnID: 7},
		&AbortRec{TxnID: 8},
		&CLRRec{TxnID: 9, KeyVal: 44, Kind: CLRUndoDelete, RestoreVal: []byte("gone"), PageID: 101, UndoNextLSN: first, PrevLSN: first + 20},
		&BeginCkptRec{},
		&EndCkptRec{BeginLSN: 16, Active: []ActiveTxn{{TxnID: 3, LastLSN: 90}, {TxnID: 4, LastLSN: 95}},
			Routes: []RouteEntry{{Start: 0, Shard: 0}, {Start: 1 << 40, Shard: 2}}},
		&BWRec{WrittenSet: []storage.PageID{5, 6, 7}, FWLSN: 123},
		&DeltaRec{
			DirtySet:   []storage.PageID{10, 11, 12, 13},
			WrittenSet: []storage.PageID{10},
			FWLSN:      200, FirstDirty: 2, TCLSN: 300,
		},
		&DeltaRec{
			DirtySet: []storage.PageID{20, 21},
			FWLSN:    0, FirstDirty: 0, TCLSN: 400,
			DirtyLSNs: []LSN{first, first + 40},
		},
		&SMORec{
			Meta:   TreeMeta{Root: 50, Height: 3, NextPID: 60},
			Images: []PageImage{{PageID: 50, Data: []byte{1, 2, 3}}, {PageID: 51, Data: []byte{4}}},
		},
		&RSSPRec{RsspLSN: 500},
	}
}

func TestAppendAndGetRoundTrip(t *testing.T) {
	l := NewLog()
	var lsns []LSN
	recs := sampleRecords()
	for _, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if lsn == NilLSN {
			t.Fatal("append returned nil LSN")
		}
		lsns = append(lsns, lsn)
	}
	l.Flush()
	for i, want := range recs {
		got, err := l.Get(lsns[i])
		if err != nil {
			t.Fatalf("Get(%v): %v", lsns[i], err)
		}
		normalize(want)
		normalize(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round trip:\n got %#v\nwant %#v", i, got, want)
		}
	}
}

// normalize maps nil slices to empty so DeepEqual compares semantics.
func normalize(r Record) {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice && f.IsNil() && f.CanSet() {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
}

func TestScannerSeesAllInOrder(t *testing.T) {
	l := NewLog()
	recs := sampleRecords()
	var lsns []LSN
	for _, r := range recs {
		lsns = append(lsns, l.MustAppend(r))
	}
	l.Flush()
	sc := l.NewScanner(FirstLSN(), nil, ScanCost{})
	i := 0
	for {
		rec, lsn, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if lsn != lsns[i] {
			t.Fatalf("record %d at %v, want %v", i, lsn, lsns[i])
		}
		if rec.Type() != recs[i].Type() {
			t.Fatalf("record %d type %v, want %v", i, rec.Type(), recs[i].Type())
		}
		i++
	}
	if i != len(recs) {
		t.Fatalf("scanner saw %d records, want %d", i, len(recs))
	}
}

func TestScannerStartsMidLog(t *testing.T) {
	l := NewLog()
	var lsns []LSN
	for i := 0; i < 10; i++ {
		lsns = append(lsns, l.MustAppend(&CommitRec{TxnID: TxnID(i)}))
	}
	l.Flush()
	sc := l.NewScanner(lsns[6], nil, ScanCost{})
	count := 0
	for {
		rec, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		c := rec.(*CommitRec)
		if c.TxnID < 6 {
			t.Fatalf("saw txn %d before scan start", c.TxnID)
		}
		count++
	}
	if count != 4 {
		t.Fatalf("saw %d records, want 4", count)
	}
}

func TestFlushBoundary(t *testing.T) {
	l := NewLog()
	a := l.MustAppend(&CommitRec{TxnID: 1})
	l.Flush()
	b := l.MustAppend(&CommitRec{TxnID: 2})
	if a == b {
		t.Fatal("LSNs collide")
	}
	// Scanner must stop at the stable boundary: txn 2 is volatile.
	sc := l.NewScanner(FirstLSN(), nil, ScanCost{})
	n := 0
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("scanner saw %d records, want 1 (unflushed tail must be invisible)", n)
	}
}

func TestSnapshotDropsVolatileTail(t *testing.T) {
	l := NewLog()
	l.MustAppend(&CommitRec{TxnID: 1})
	l.Flush()
	l.MustAppend(&CommitRec{TxnID: 2}) // volatile: lost at crash
	snap := l.Snapshot()
	if snap.EndLSN() != l.FlushedLSN() {
		t.Fatalf("snapshot end %v != flushed %v", snap.EndLSN(), l.FlushedLSN())
	}
	if _, err := snap.Append(&CommitRec{TxnID: 3}); err == nil {
		t.Fatal("append to snapshot succeeded")
	}
}

func TestScannerChargesLogPages(t *testing.T) {
	l := NewLog()
	for i := 0; i < 2000; i++ {
		l.MustAppend(&UpdateRec{TxnID: TxnID(i), KeyVal: uint64(i), OldVal: make([]byte, 40), NewVal: make([]byte, 40)})
	}
	l.Flush()
	clock := &sim.Clock{}
	cost := ScanCost{PageSize: 4096, PerPage: sim.Millisecond}
	sc := l.NewScanner(FirstLSN(), clock, cost)
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if sc.PagesRead() == 0 {
		t.Fatal("no log pages charged")
	}
	wantTime := sim.Duration(sc.PagesRead()) * sim.Millisecond
	if got := clock.Now().Sub(0); got != wantTime {
		t.Fatalf("clock advanced %v, want %v", got, wantTime)
	}
	// Sanity: bytes / page size ≈ pages read.
	approxPages := int64(l.EndLSN())/4096 + 1
	if diff := sc.PagesRead() - approxPages; diff < -1 || diff > 1 {
		t.Fatalf("pages read %d, approx %d", sc.PagesRead(), approxPages)
	}
}

func TestGetOutOfRange(t *testing.T) {
	l := NewLog()
	l.MustAppend(&CommitRec{TxnID: 1})
	l.Flush()
	if _, err := l.Get(LSN(1 << 40)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := l.Get(NilLSN); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Get(NilLSN) err = %v, want ErrOutOfRange", err)
	}
}

// TestDeltaValidation: a ∆ or BW record that analysis could not mean —
// DirtyLSNs not parallel to DirtySet, FirstDirty past the DirtySet, the
// invalid page in any list, a WrittenSet out of ascending order, a
// DirtyLSNs entry at or above the record or below the log, a BW mark on
// a ∆ that lists no written page — is
// refused by the encoder and, forged, by the decoder;
// and a list count the body cannot hold is refused before it is
// allocated.
func TestDeltaValidation(t *testing.T) {
	const at = LSN(1000)
	pids := func(p ...storage.PageID) []storage.PageID { return p }
	for name, bad := range map[string]Record{
		"short DirtyLSNs":    &DeltaRec{DirtySet: pids(1, 2, 3), DirtyLSNs: []LSN{16}},
		"FirstDirty":         &DeltaRec{DirtySet: pids(1, 2), FirstDirty: 3},
		"page 0 dirty":       &DeltaRec{DirtySet: pids(1, 0), FirstDirty: 2},
		"page 0 written":     &DeltaRec{DirtySet: pids(1), WrittenSet: pids(0)},
		"page 0 in BW":       &BWRec{WrittenSet: pids(0, 7)},
		"written descending": &DeltaRec{DirtySet: pids(1), FirstDirty: 1, WrittenSet: pids(5, 3)},
		"BW descending":      &BWRec{WrittenSet: pids(7, 5)},
		"BW mark, no write":  &DeltaRec{DirtySet: pids(1), FirstDirty: 1, BW: true},
		"DirtyLSN at record": &DeltaRec{DirtySet: pids(1), DirtyLSNs: []LSN{at}},
		"DirtyLSN below log": &DeltaRec{DirtySet: pids(1), DirtyLSNs: []LSN{FirstLSN() - 1}},
	} {
		if body, err := bad.encodeBody(nil, at); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: encoded to %x (%v), want ErrBadRecord", name, body, err)
		}
		l := NewLog()
		if _, err := l.Append(bad); !errors.Is(err, ErrBadRecord) || l.EndLSN() != FirstLSN() {
			t.Errorf("%s: Append = %v with the log at %v, want ErrBadRecord and nothing appended", name, err, l.EndLSN())
		}
	}

	// The same records forged: dirty, written, fwLSN, firstDirty, tcLSN,
	// then the trailing dirtyLSNs and shard, left out where 0.
	var d DeltaRec
	var bw BWRec
	for name, body := range map[string][]byte{
		"short DirtyLSNs":    {3, 1, 2, 3, 0, 0, 0, 0, 1, 5},
		"FirstDirty":         {2, 1, 2, 0, 0, 3, 0},
		"page 0 dirty":       {2, 1, 0, 0, 0, 2, 0},
		"page 0 written":     {1, 1, 1 << 1, 0, 0, 0, 0},
		"BW mark, no write":  {1, 1, 0<<1 | 1, 0, 1, 0},
		"DirtyLSN below log": {1, 1, 0, 0, 0, 0, 1, 0xD9, 0x07}, // 985 back from 1000: LSN 15
		"dirty count":        {200, 1, 2, 0, 0, 0, 0},
		"written count":      {1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0},
		"DirtyLSNs count":    {1, 1, 0, 0, 0, 0, 9, 1},
	} {
		if err := d.decodeBody(body, at); !errors.Is(err, ErrBadRecord) {
			t.Errorf("forged %s decoded: %+v, %v", name, d, err)
		}
	}
	if err := bw.decodeBody([]byte{1, 0, 0}, at); !errors.Is(err, ErrBadRecord) {
		t.Errorf("forged BW naming page 0 decoded: %+v, %v", bw, err)
	}
	// Written pages are gaps: gaps on both sides of every width the list
	// reader tells apart, 0 (a page flushed twice) included, come back as
	// they went in, and so does a lone page number of each width; a gap
	// spelt a byte too wide does not, nor one that steps past 32 bits.
	var edges []storage.PageID
	var pid storage.PageID
	for _, gap := range pids(1, 0, 127, 128, 16383, 16384, 1<<21-1, 1<<21, 1<<28-1) {
		pid += gap
		edges = append(edges, pid)
	}
	for _, list := range [][]storage.PageID{edges, pids(127), pids(128), pids(16384), pids(1 << 21), pids(1<<32 - 1)} {
		body, _ := (&BWRec{WrittenSet: list, FWLSN: 9}).encodeBody(nil, at)
		if err := bw.decodeBody(body, at); err != nil || !reflect.DeepEqual(bw.WrittenSet, list) {
			t.Errorf("written pages %v: decoded %v, %v", list, bw.WrittenSet, err)
		}
	}
	for _, body := range [][]byte{{1, 0x81, 0x00, 0}, {1, 0x81, 0x80, 0x00, 0}, {1, 0x81, 0x80, 0x80, 0x00, 0}, {1, 0x80, 0x80, 0x80, 0x80, 0x10, 0},
		{2, 5, 0x85, 0x00, 0}, {2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 0}} {
		if err := bw.decodeBody(body, at); !errors.Is(err, ErrBadRecord) {
			t.Errorf("BW body %x decoded: %+v, %v", body, bw, err)
		}
	}
	// Dirty pages are page numbers in arrival order: those on both sides
	// of every width the list reader tells apart come back as they went
	// in; page 1 spelt in 2, 3 or 4 bytes does not, nor 2^32 in 5.
	dirty := pids(1, 127, 128, 16383, 16384, 1<<21-1, 1<<21, 1<<28-1, 1<<28, 1<<32-1)
	body, _ := (&DeltaRec{DirtySet: dirty}).encodeBody(nil, at)
	if err := d.decodeBody(body, at); err != nil || !reflect.DeepEqual(d.DirtySet, dirty) {
		t.Errorf("dirty pages at the width edges: %v, %v", d.DirtySet, err)
	}
	for _, body := range [][]byte{{1, 0x81, 0x00, 0, 0, 0, 0}, {1, 0x81, 0x80, 0x00, 0, 0, 0, 0},
		{1, 0x81, 0x80, 0x80, 0x00, 0, 0, 0, 0}, {1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0}} {
		if err := d.decodeBody(body, at); !errors.Is(err, ErrBadRecord) {
			t.Errorf("∆ body %x decoded: %+v, %v", body, d, err)
		}
	}
	// The well-formed neighbours of the forgeries decode. This one ends
	// with a nil DirtyLSN: a 0 inside the list, not a trailing field.
	if err := d.decodeBody([]byte{2, 1, 2, 0, 0, 2, 0, 2, 0xD8, 0x07, 0}, at); err != nil ||
		d.DirtyLSNs[0] != FirstLSN() || d.DirtyLSNs[1] != NilLSN {
		t.Errorf("well-formed ∆: %+v, %v", d, err)
	}
}

// TestBackPointerPointsBack: PrevLSN, UndoNextLSN and DirtyLSNs are
// logged as distances below the record that carries them. Nil, a
// one-byte distance, a multi-byte one, a pointer at the first record of
// the log and one across a segment seam come back as the LSNs that went
// in — from Get, from the scanner and from the files reopened — and a
// pointer that does not point strictly backward into the log has no
// encoding: Append refuses it and appends nothing.
func TestBackPointerPointsBack(t *testing.T) {
	l, _, dir := fileLogSized(t, modelSegCap)
	want := map[LSN]Record{}
	add := func(r Record) LSN {
		t.Helper()
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		want[lsn] = r
		return lsn
	}
	first := add(&CommitRec{TxnID: 1}) // nil, in the first record of the log
	if first != FirstLSN() {
		t.Fatalf("first record at %v", first)
	}
	near := add(&InsertRec{TxnID: 2, KeyVal: 1, PageID: 9, PrevLSN: first}) // at the first record, one byte back-distance
	prev := near
	for l.Segments() < 3 {
		prev = add(&UpdateRec{TxnID: 3, KeyVal: uint64(prev), OldVal: []byte("a"), NewVal: []byte("b"), PageID: 9, PrevLSN: prev})
	}
	seam := l.tail().base
	if prev < seam || near >= l.segs[1].base {
		t.Fatalf("fixture: records at %v and %v, segments at %v and %v", near, prev, l.segs[1].base, seam)
	}
	// In the third segment: pointers into the second and the first, two
	// bytes of distance and more, and both of a CLR's.
	add(&DeleteRec{TxnID: 3, KeyVal: 4, PageID: 9, PrevLSN: seam - 1})
	add(&CLRRec{TxnID: 3, KeyVal: 5, Kind: CLRUndoInsert, PageID: 9, UndoNextLSN: near, PrevLSN: prev})
	add(&InsertRec{TxnID: 3, KeyVal: 6, PageID: 9, PrevLSN: first})
	add(&DeleteRec{TxnID: 4, KeyVal: 10, PageID: 9, ShardID: 1, PrevLSN: near})
	add(&DeltaRec{DirtySet: []storage.PageID{9, 8, 7, 6}, FirstDirty: 4, TCLSN: seam,
		DirtyLSNs: []LSN{first, NilLSN, seam - 1, prev}})
	end := l.Flush()

	check := func(how string, l *Log) {
		t.Helper()
		n := 0
		sc := l.NewScanner(FirstLSN(), nil, ScanCost{})
		for {
			scanned, lsn, ok, err := sc.Next()
			if err != nil {
				t.Fatalf("%s: scan: %v", how, err)
			}
			if !ok {
				break
			}
			got, err := l.Get(lsn)
			if err != nil {
				t.Fatalf("%s: Get(%v): %v", how, lsn, err)
			}
			w := want[lsn]
			for _, r := range []Record{scanned, got, w} {
				normalize(r)
			}
			// Updates went in as whole images and come back as middles;
			// their pointer is what this test is about.
			if u, ok := w.(*UpdateRec); ok {
				if scanned.(*UpdateRec).PrevLSN != u.PrevLSN || got.(*UpdateRec).PrevLSN != u.PrevLSN {
					t.Fatalf("%s: update at %v points at %v / %v, want %v", how, lsn, scanned.(*UpdateRec).PrevLSN, got.(*UpdateRec).PrevLSN, u.PrevLSN)
				}
			} else if !reflect.DeepEqual(scanned, w) || !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: record at %v:\n scan %+v\n get  %+v\n want %+v", how, lsn, scanned, got, w)
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("%s: %d records, want %d", how, n, len(want))
		}
	}
	check("live", l)

	for name, p := range map[string]LSN{"at itself": end, "ahead": end + 100, "below the log": FirstLSN() - 1} {
		for _, r := range []Record{
			&UpdateRec{TxnID: 9, PrevLSN: p}, &InsertRec{TxnID: 9, PrevLSN: p}, &DeleteRec{TxnID: 9, PrevLSN: p},
			&CLRRec{TxnID: 9, Kind: CLRUndoInsert, PrevLSN: p}, &CLRRec{TxnID: 9, Kind: CLRUndoInsert, UndoNextLSN: p},
			&DeltaRec{DirtySet: []storage.PageID{1}, FirstDirty: 1, DirtyLSNs: []LSN{p}},
		} {
			if lsn, err := l.Append(r); !errors.Is(err, ErrBadRecord) || lsn != NilLSN {
				t.Fatalf("%v record pointing %s: Append = %v, %v; want ErrBadRecord", r.Type(), name, lsn, err)
			}
		}
	}
	if l.EndLSN() != end || l.Records() != int64(len(want)) {
		t.Fatalf("refused appends left the log at %v with %d records, want %v and %d", l.EndLSN(), l.Records(), end, len(want))
	}

	if err := l.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenLogDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseBackend()
	check("reopened", re)

	// A forged distance that reaches below FirstLSN: an insert of txn 39
	// at LSN 40 (key 0, empty row, page 0), pointing 25 bytes back.
	_, _, err = decodeFrame([]byte{byte(TypeInsert), 5, 1, 0, 0, 0, 25}, 40, 40)
	if !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), LSN(40).String()) {
		t.Fatalf("forged pointer below the log: %v, want ErrBadRecord naming %v", err, LSN(40))
	}
	if rec, _, err := decodeFrame([]byte{byte(TypeInsert), 5, 1, 0, 0, 0, 24}, 40, 40); err != nil || rec.(*InsertRec).PrevLSN != FirstLSN() {
		t.Fatalf("pointer at the first record: %+v, %v", rec, err)
	}
}

func TestAppendCount(t *testing.T) {
	l := NewLog()
	l.MustAppend(&BWRec{})
	l.MustAppend(&DeltaRec{})
	l.MustAppend(&DeltaRec{})
	if got := l.AppendCount(TypeBW); got != 1 {
		t.Fatalf("BW count = %d", got)
	}
	if got := l.AppendCount(TypeDelta); got != 2 {
		t.Fatalf("Delta count = %d", got)
	}
}

// undoRow rebuilds the row an update met from the row it left, through
// the CLR that undoes it.
func undoRow(u *UpdateRec, cur []byte) ([]byte, error) {
	clr, _, _, err := Undo(u)
	if err != nil {
		return nil, err
	}
	return clr.After(cur)
}

// TestUndoDraftsEveryCLR checks the one rollback step on each record a
// backchain can hold: an insert is undone by a delete that cannot split
// a leaf, a delete by re-inserting the whole row, which can; a CLR skips
// to its UndoNextLSN with no CLR; any other record is ErrBadRecord.
func TestUndoDraftsEveryCLR(t *testing.T) {
	const prev, undoNext = LSN(40), LSN(30)
	for _, c := range []struct {
		rec        Record
		want       *CLRRec
		next       LSN
		structural bool
	}{
		{&InsertRec{TxnID: 9, KeyVal: 5, Val: []byte("row"), PageID: 7, ShardID: 2, PrevLSN: prev},
			&CLRRec{TxnID: 9, KeyVal: 5, Kind: CLRUndoInsert, ShardID: 2, UndoNextLSN: prev}, prev, false},
		{&DeleteRec{TxnID: 9, KeyVal: 5, OldVal: []byte("row"), PageID: 7, ShardID: 2, PrevLSN: prev},
			&CLRRec{TxnID: 9, KeyVal: 5, Kind: CLRUndoDelete, RestoreVal: []byte("row"), ShardID: 2, UndoNextLSN: prev}, prev, true},
		{&UpdateRec{TxnID: 9, KeyVal: 5, Skip: 1, Tail: 2, OldVal: []byte("abc"), NewVal: []byte("x"), ShardID: 2, PrevLSN: prev},
			&CLRRec{TxnID: 9, KeyVal: 5, Kind: CLRUndoUpdate, Skip: 1, Tail: 2, RestoreVal: []byte("abc"), ShardID: 2, UndoNextLSN: prev}, prev, true},
		{&UpdateRec{TxnID: 9, KeyVal: 5, Skip: 1, OldVal: []byte("a"), NewVal: []byte("b"), PrevLSN: prev},
			&CLRRec{TxnID: 9, KeyVal: 5, Kind: CLRUndoUpdate, Skip: 1, InPlace: true, RestoreVal: []byte("a"), UndoNextLSN: prev}, prev, false},
		{&CLRRec{TxnID: 9, KeyVal: 5, Kind: CLRUndoInsert, UndoNextLSN: undoNext, PrevLSN: prev}, nil, undoNext, false},
	} {
		clr, next, structural, err := Undo(c.rec)
		if err != nil || !reflect.DeepEqual(clr, c.want) || next != c.next || structural != c.structural {
			t.Fatalf("Undo(%+v) = %+v, %v, %v, %v; want %+v, %v, %v", c.rec, clr, next, structural, err, c.want, c.next, c.structural)
		}
	}
	if _, _, _, err := Undo(&CommitRec{TxnID: 9}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Undo of a commit record: %v, want ErrBadRecord", err)
	}
}

// TestQuickUpdateRoundTrip fuzzes the patch encoding of update records
// and of the CLRs that compensate them: whatever whole images a
// producer hands over, the decoded record holds maximally trimmed
// middles — and no tail when they are equally long — rebuilds either
// image from the other (and patches any other row that keeps the same
// ends), and re-encodes to the same bytes.
func TestQuickUpdateRoundTrip(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const at = LSN(1 << 40)
	f := func(txn uint64, key uint64, prefix, oldMid, newMid, suffix, other []byte, pid, shard uint32, prev uint64) bool {
		oldV, newV := cat(prefix, oldMid, suffix), cat(prefix, newMid, suffix)
		// Any name up to the record's own LSN; a record that opens its
		// transaction (OpensTxn, decoded as its LSN) has no prev.
		name, wantTxn := TxnID(txn%uint64(at)), TxnID(txn%uint64(at))
		if prev%4 == 0 {
			prev = 0 // a transaction's first record
			if txn%2 == 0 {
				name, wantTxn = OpensTxn, TxnID(at)
			}
		} else {
			prev = uint64(FirstLSN()) + prev%uint64(at-FirstLSN())
		}
		in := &UpdateRec{
			TxnID: name, KeyVal: key,
			OldVal: oldV, NewVal: newV,
			PageID: storage.PageID(pid), ShardID: ShardID(shard), PrevLSN: LSN(prev),
		}
		body, err := in.encodeBody(nil, at)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		var out UpdateRec
		if err := out.decodeBody(body, at); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if out.TxnID != wantTxn || out.KeyVal != key ||
			out.PageID != in.PageID || out.ShardID != in.ShardID || out.PrevLSN != in.PrevLSN {
			t.Logf("fields: %+v", out)
			return false
		}
		// Maximal: at least the ends the images were built with, and
		// nothing left to trim. An in-place patch's tail is what the row
		// has past its middle, and the record holds none.
		inPlace, tail := len(out.OldVal) == len(out.NewVal), int(out.Tail)
		if inPlace {
			if out.Tail != 0 {
				return false
			}
			tail = len(oldV) - int(out.Skip) - len(out.OldVal)
		}
		if int(out.Skip)+tail < len(prefix)+len(suffix) || int(out.Skip)+len(out.OldVal)+tail != len(oldV) {
			t.Logf("skip %d tail %d for ends %d+%d", out.Skip, tail, len(prefix), len(suffix))
			return false
		}
		if p, s := commonEnds(out.OldVal, out.NewVal); p+s != 0 {
			return false
		}
		if again, err := out.encodeBody(nil, at); err != nil || !bytes.Equal(again, body) {
			t.Logf("re-encode differs")
			return false
		}
		// Both forms — whole images and middles — rebuild both rows.
		for _, r := range []*UpdateRec{in, &out} {
			after, err1 := r.After(oldV)
			before, err2 := undoRow(r, newV)
			if err1 != nil || err2 != nil || !bytes.Equal(after, newV) || !bytes.Equal(before, oldV) {
				t.Logf("after %q %v, before %q %v", after, err1, before, err2)
				return false
			}
		}
		// Any row with the same ends takes the patch — an in-place one
		// any row whose middle is as long.
		if inPlace {
			other = cat(other, make([]byte, len(out.OldVal)))[:len(out.OldVal)]
		}
		row := cat(oldV[:out.Skip], other, oldV[len(oldV)-tail:])
		want := cat(oldV[:out.Skip], out.NewVal, oldV[len(oldV)-tail:])
		if got, err := out.After(row); err != nil || !bytes.Equal(got, want) {
			return false
		}
		// The before-image is still to patch, the after-image is done
		// (an update that changed nothing is never "done": re-applying
		// it is as harmless as applying it).
		if done, err := out.Applied(oldV); err != nil || done {
			return false
		}
		if done, err := out.Applied(newV); err != nil || done == bytes.Equal(oldV, newV) {
			return false
		}

		// The compensation is the same patch turned round; undoing it
		// can split a leaf exactly when it restores a longer middle.
		clr, next, structural, err := Undo(&out)
		if err != nil || next != in.PrevLSN || structural != (len(out.OldVal) > len(out.NewVal)) {
			t.Logf("Undo: next %v structural %v, %v", next, structural, err)
			return false
		}
		var back CLRRec
		clrBody, err := clr.encodeBody(nil, at)
		if err != nil {
			t.Logf("CLR encode: %v", err)
			return false
		}
		if err := back.decodeBody(clrBody, at); err != nil {
			t.Logf("CLR decode: %v", err)
			return false
		}
		normalize(clr)
		normalize(&back)
		if !reflect.DeepEqual(clr, &back) || back.UndoNextLSN != in.PrevLSN || back.InPlace != inPlace {
			return false
		}
		restored, err := back.After(newV)
		return err == nil && bytes.Equal(restored, oldV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceBounds: a patch that keeps more bytes than the row has, or
// an in-place one that writes past its end, is ErrBadRecord, never a
// panic, at any skip and tail.
func TestSpliceBounds(t *testing.T) {
	f := func(cur, mid []byte, skip, tail uint32, small bool) bool {
		if small {
			skip, tail = skip%uint32(len(cur)+2), tail%uint32(len(cur)+2)
		}
		out, err := Splice(cur, skip, tail, mid)
		if uint64(skip)+uint64(tail) > uint64(len(cur)) {
			return errors.Is(err, ErrBadRecord)
		}
		return err == nil && len(out) == int(skip)+len(mid)+int(tail) &&
			bytes.HasPrefix(out, cur[:skip]) && bytes.HasSuffix(out, cur[len(cur)-int(tail):])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []interface {
		After([]byte) ([]byte, error)
	}{
		&UpdateRec{Skip: 3, Tail: 2, NewVal: []byte("x")}, &UpdateRec{Skip: 3, OldVal: []byte("ab"), NewVal: []byte("xy")},
		&CLRRec{Kind: CLRUndoUpdate, Skip: 5}, &CLRRec{Kind: CLRUndoUpdate, Skip: 3, InPlace: true, RestoreVal: []byte("ab")},
	} {
		if _, err := r.After([]byte("abcd")); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("%T.After on a short row: %v, want ErrBadRecord", r, err)
		}
		if u, ok := r.(*UpdateRec); ok {
			if _, err := u.Applied([]byte("abcd")); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("Applied of %+v on a short row: %v, want ErrBadRecord", u, err)
			}
		}
	}
}

// TestPatchShapesMatchRowModel checks every patch shape against the two
// rows it was made from: a span of a 10-byte row replaced at its start,
// in its middle and at its end, by as many bytes (in place) or by more
// or fewer, an empty span or an empty replacement included. The decoded
// update rebuilds each row from the other and itself from its own
// output, Applied tells the two rows apart, an in-place patch logs and
// holds no tail, and its CLR — in place exactly when the update is —
// round-trips and restores the row.
func TestPatchShapesMatchRowModel(t *testing.T) {
	const at = LSN(5000)
	row := []byte("0123456789")
	var shapes, inPlace int
	for _, span := range []int{0, 1, 3, 10} {
		for _, n := range []int{0, 1, 3, 10} {
			if span == 0 && n == 0 {
				continue // no change at all
			}
			for _, start := range []int{0, 5, len(row) - span} {
				if start+span > len(row) {
					continue
				}
				oldV := row
				newV := slices.Concat(row[:start], bytes.Repeat([]byte("x"), n), row[start+span:])
				name := fmt.Sprintf("%d bytes at %d replaced by %d", span, start, n)
				in := &UpdateRec{TxnID: OpensTxn, KeyVal: 7, OldVal: oldV, NewVal: newV, PageID: 3}
				body, err := in.encodeBody(nil, at)
				if err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				var u UpdateRec
				if err := u.decodeBody(body, at); err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				same := span == n
				if same {
					inPlace++
					if u.Tail != 0 || len(u.OldVal) != len(u.NewVal) {
						t.Fatalf("%s: decoded in-place patch %+v holds a tail", name, u)
					}
				} else if int(u.Skip)+len(u.OldVal)+int(u.Tail) != len(oldV) {
					t.Fatalf("%s: patch %+v does not span the row", name, u)
				}
				after, err1 := u.After(oldV)
				before, err2 := undoRow(&u, newV)
				if err1 != nil || err2 != nil || !bytes.Equal(after, newV) || !bytes.Equal(before, oldV) {
					t.Fatalf("%s: After %q (%v), Before %q (%v)", name, after, err1, before, err2)
				}
				again, err1 := u.After(before)
				back, err2 := undoRow(&u, after)
				if err1 != nil || err2 != nil || !bytes.Equal(again, newV) || !bytes.Equal(back, oldV) {
					t.Fatalf("%s: After(Before) %q (%v), Before(After) %q (%v)", name, again, err1, back, err2)
				}
				if done, err := u.Applied(oldV); err != nil || done {
					t.Fatalf("%s: Applied(before-image) = %v, %v", name, done, err)
				}
				if done, err := u.Applied(newV); err != nil || !done {
					t.Fatalf("%s: Applied(after-image) = %v, %v", name, done, err)
				}
				// The CLR of the decoded update and of the producer's
				// whole images: both restore the row, and the decoded
				// one's bytes are its own.
				for _, from := range []*UpdateRec{&u, in} {
					clr, _, _, err := Undo(from)
					if err != nil {
						t.Fatalf("%s: Undo: %v", name, err)
					}
					clr.TxnID, clr.PageID, clr.PrevLSN = TxnID(at), 3, at
					if clr.InPlace != same {
						t.Fatalf("%s: CLR in place %v, update in place %v", name, clr.InPlace, same)
					}
					clrBody, err := clr.encodeBody(nil, at+100)
					if err != nil {
						t.Fatalf("%s: CLR encode: %v", name, err)
					}
					var got CLRRec
					if err := got.decodeBody(clrBody, at+100); err != nil {
						t.Fatalf("%s: CLR decode: %v", name, err)
					}
					if restored, err := got.After(newV); err != nil || !bytes.Equal(restored, oldV) {
						t.Fatalf("%s: CLR restored %q, %v", name, restored, err)
					}
					normalize(clr)
					normalize(&got)
					if from == &u && !reflect.DeepEqual(clr, &got) {
						t.Fatalf("%s: CLR round trip:\n got %+v\nwant %+v", name, got, clr)
					}
				}
				shapes++
			}
		}
	}
	if shapes < 30 || inPlace < 8 {
		t.Fatalf("%d shapes, %d in place: the table lost its point", shapes, inPlace)
	}
}

// TestVarintBodiesAreCanonical: one record has one byte string. An
// over-long varint — in a per-operation body, a system record or the
// frame header's length — a value too wide for its field, an update
// whose middles still share an end, a second patch length equal to the
// first, an in-place update that logs a tail, a ∆ marked as a BW record
// over an empty WrittenSet, a WrittenSet out of ascending order and a
// trailing field written as 0 at the body's end are all refused, and so
// are a transaction named from below the log, a record that opens its
// transaction yet points back into it, and a commit or abort that would
// end a transaction with no records.
func TestVarintBodiesAreCanonical(t *testing.T) {
	const at = LSN(600)
	good, err := (&CommitRec{TxnID: TxnID(at - 5)}).encodeBody(nil, at)
	if want := []byte{5}; err != nil || !bytes.Equal(good, want) { // 5 bytes back
		t.Fatalf("commit encoded %x (%v), want %x", good, err, want)
	}
	var c CommitRec
	if err := c.decodeBody(good, at); err != nil || c.TxnID != TxnID(at-5) {
		t.Fatalf("canonical body: %+v, %v", c, err)
	}
	// A transaction's name is the distance back to its first record: 0
	// for the record that opens it, the record's own LSN for TxnID 0. An
	// insert of key 0, an empty row and page 0 is that distance and three
	// zeros; its nil prev and shard 0 are left out.
	for _, tc := range []struct {
		in, out TxnID
		body    []byte
	}{
		{OpensTxn, TxnID(at), []byte{0, 0, 0, 0}},
		{TxnID(at), TxnID(at), []byte{0, 0, 0, 0}},
		{0, 0, []byte{0xD8, 0x04, 0, 0, 0}},
		{TxnID(FirstLSN()), TxnID(FirstLSN()), []byte{0xC8, 0x04, 0, 0, 0}},
	} {
		body, err := (&InsertRec{TxnID: tc.in}).encodeBody(nil, at)
		var m InsertRec
		if err != nil || !bytes.Equal(body, tc.body) || m.decodeBody(body, at) != nil || m.TxnID != tc.out {
			t.Errorf("txn %d: encoded %x (%v), want %x; decoded %d, want %d", tc.in, body, err, tc.body, m.TxnID, tc.out)
		}
	}
	for name, rec := range map[string]Record{
		"txn above the record":                   &CommitRec{TxnID: TxnID(at) + 1},
		"opener that points back":                &InsertRec{TxnID: OpensTxn, PrevLSN: 300},
		"update named by its LSN, pointing back": &UpdateRec{TxnID: TxnID(at), PrevLSN: 300},
		"end-ckpt entry above the record":        &EndCkptRec{Active: []ActiveTxn{{TxnID: TxnID(at) + 1}}},
		"commit that opens its txn":              &CommitRec{TxnID: OpensTxn},
		"commit named by its LSN":                &CommitRec{TxnID: TxnID(at)},
		"abort that opens its txn":               &AbortRec{TxnID: OpensTxn},
		"in-place CLR of an insert":              &CLRRec{TxnID: 1, Kind: CLRUndoInsert, InPlace: true},
		"∆ WrittenSet descending":                &DeltaRec{WrittenSet: []storage.PageID{9, 8}},
		"BW WrittenSet descending":               &BWRec{WrittenSet: []storage.PageID{3, 4, 2}},
	} {
		if _, err := rec.encodeBody(nil, at); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s encoded: %v", name, err)
		}
	}
	// An insert that opens its transaction (distance 0), key 0, an empty
	// row, page 0, and a prev 300 bytes back.
	var ins InsertRec
	if err := ins.decodeBody([]byte{0, 0, 0, 0, 0xAC, 0x02}, at); !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), "opens its transaction but points back to lsn:300") {
		t.Errorf("an opener pointing back decoded: %+v, %v", ins, err)
	}
	for _, rec := range []Record{&CommitRec{}, &AbortRec{}} {
		if err := rec.decodeBody([]byte{0}, at); !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), "ends a transaction with no records") {
			t.Errorf("%v at distance 0 decoded: %+v, %v", rec.Type(), rec, err)
		}
	}
	var u UpdateRec
	for name, tc := range map[string]struct {
		rec  Record
		body []byte
	}{
		"txn distance 5 spelt in two bytes": {&c, []byte{0x85, 0x00}},
		"txn 601 bytes back from 600":       {&c, []byte{0xD9, 0x04}},
		"commit with a prev":                {&c, []byte{5, 1}},
		"nil pointer spelt in two bytes":    {&ins, []byte{5, 0, 0, 0, 0x80, 0x00}},
		"skip beyond 32 bits":               {&u, putUvarint(putUvarint(putUvarint(nil, 1), 1), 1<<32)},
		// txn 1, key 1, skip 0, 2<<1 (two equal lengths), old "ab", new
		// "ac", pid; prev and shard left out.
		"untrimmed patch":            {&u, []byte{1, 1, 0, 4, 'a', 'b', 'a', 'c', 1}},
		"equal lengths logged twice": {&u, []byte{1, 1, 0, 1<<1 | 1, 'b', 1, 'c', 0, 1}},
		// An in-place patch, then tail 5, pid 1, prev 3 and shard 2: one
		// field more than the record has.
		"in-place patch with a tail": {&u, []byte{1, 1, 0, 2, 'b', 'c', 5, 1, 3, 2}},
		"CLR kind beyond a byte":     {&CLRRec{}, []byte{1, 1, 0x80, 0x04, 0, 0, 0, 1}},
		"in-place CLR of a delete":   {&CLRRec{}, []byte{1, 1, byte(CLRUndoDelete)<<1 | 1, 0, 1, 'v', 1}},
		"RSSP shard over-long":       {&RSSPRec{}, []byte{12, 0x80, 0x00}},
		"BW count over-long":         {&BWRec{}, []byte{0x81, 0x00, 7, 0}},
		// dirty 0, written 0<<1 | 1: a BW mark on an empty batch.
		"∆ marked BW, no written page": {&DeltaRec{}, []byte{0, 1, 0, 0, 0}},
		// Page 2^32-1, then a gap of 1: no ascending list wraps round.
		"∆ written gap past 32 bits":   {&DeltaRec{}, []byte{0, 2 << 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 0, 0, 0}},
		"end-ckpt route shard 33 bits": {&EndCkptRec{}, append([]byte{16, 0, 1, 0}, putUvarint(nil, 1<<32)...)},
		"SMO image length over-long":   {&SMORec{}, []byte{2, 2, 11, 1, 10, 0x81, 0x00, 'x'}},
		"insert key over-long":         {&ins, []byte{1, 0x80, 0x00, 0, 9}},
	} {
		if err := tc.rec.decodeBody(tc.body, at); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s decoded: %+v, %v", name, tc.rec, err)
		}
	}
	// A trailing field present, 0 and last is refused — the encoder
	// leaves it out — and the same body without it decodes.
	for name, tc := range map[string]struct {
		rec  Record
		body []byte
	}{
		"update nil prev":           {&u, []byte{1, 1, 0, 2, 'b', 'c', 1, 0}},
		"update shard 0":            {&u, []byte{1, 1, 0, 2, 'b', 'c', 1, 5, 0}},
		"insert shard 0":            {&InsertRec{}, []byte{1, 1, 1, 'v', 1, 5, 0}},
		"delete nil prev":           {&DeleteRec{}, []byte{1, 1, 1, 'v', 1, 0}},
		"CLR nil undoNext":          {&CLRRec{}, []byte{1, 1, byte(CLRUndoInsert) << 1, 0, 0, 0, 1, 5, 0}},
		"∆ without DirtyLSNs":       {&DeltaRec{}, []byte{0, 0, 0, 0, 0, 0}},
		"∆ shard 0 after DirtyLSNs": {&DeltaRec{}, []byte{1, 4, 0, 0, 0, 0, 1, 5, 0}},
		"marked ∆ shard 0":          {&DeltaRec{}, []byte{0, 1<<1 | 1, 4, 0, 0, 0, 0}},
		"BW shard 0":                {&BWRec{}, []byte{1, 4, 0, 0}},
		"SMO shard 0":               {&SMORec{}, []byte{2, 2, 11, 0, 0}},
	} {
		if err := tc.rec.decodeBody(tc.body, at); !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), "trailing zero") {
			t.Errorf("%s written out decoded: %+v, %v", name, tc.rec, err)
		}
		if err := tc.rec.decodeBody(tc.body[:len(tc.body)-1], at); err != nil {
			t.Errorf("%s left out: %v", name, err)
		}
	}
	for _, tc := range []struct {
		rec  *UpdateRec
		want []byte
	}{
		// Trimmed to one byte each side at skip 1, in place: no tail.
		{&UpdateRec{TxnID: TxnID(at - 1), KeyVal: 1, OldVal: []byte("ab"), NewVal: []byte("ac"), PageID: 1},
			[]byte{1, 1, 1, 2, 'b', 'c', 1}},
		// Growing by a byte at the row's start: the tail, 2, follows
		// the after-middle.
		{&UpdateRec{TxnID: TxnID(at - 1), KeyVal: 1, OldVal: []byte("ab"), NewVal: []byte("xab"), PageID: 1},
			[]byte{1, 1, 0, 1, 1, 'x', 2, 1}},
	} {
		if got, _ := tc.rec.encodeBody(nil, at); !bytes.Equal(got, tc.want) {
			t.Fatalf("%q → %q encoded %v, want %v", tc.rec.OldVal, tc.rec.NewVal, got, tc.want)
		}
	}

	// The frame header: type, then the body length in as few bytes as
	// hold it. A length spelt wider is not a second spelling of the frame.
	frame := append([]byte{byte(TypeCommit), byte(len(good))}, good...)
	if rec, end, err := decodeFrame(frame, at, at); err != nil || end != at+LSN(len(frame)) || rec.(*CommitRec).TxnID != TxnID(at-5) {
		t.Fatalf("canonical frame: %+v, %v, %v", rec, end, err)
	}
	wideLen := append([]byte{byte(TypeCommit), 0x80 | byte(len(good)), 0x00}, good...)
	for name, frame := range map[string][]byte{
		"over-long length": wideLen,
		// Type 13, the retired shard-map record: txn 1 byte back, split
		// at 0, end 0, shard 0, nil prev.
		"retired type 13": {13, 5, 1, 0, 0, 0, 0},
	} {
		if _, _, err := decodeFrame(frame, at, at); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("%s: frame decoded: %v", name, err)
		}
	}
	if saneFrameClaim(wideLen) {
		t.Fatal("a shipped frame with an over-long length would be held back, not rejected")
	}
}

// TestRecordSizes pins the framed size of representative records at an
// LSN a megabyte into the log, so a format change is sized by a failing
// line here rather than discovered in the benchmark. An update of one
// 3-byte field in a 69-byte row: 2 header bytes, 1 txn (the distance
// back to the transaction's first record, 40 bytes), 3 key, 1 skip,
// 1 length for both middles, 3+3 middles — in place, so no tail —
// 2 pid, then the trailing prev and shard, each left out when it is the
// last field and 0.
func TestRecordSizes(t *testing.T) {
	const at = LSN(1 << 20)
	const key, pid = 500_000, storage.PageID(3000)
	prev := at - 40
	txn := TxnID(prev) // the transaction's first record is its last
	update := func(prev LSN, shard ShardID) *UpdateRec {
		name := txn
		if prev == NilLSN {
			name = OpensTxn
		}
		return &UpdateRec{TxnID: name, KeyVal: key, Skip: 20, Tail: 46,
			OldVal: []byte("abc"), NewVal: []byte("xyz"), PageID: pid, ShardID: shard, PrevLSN: prev}
	}
	long := update(prev, 0)
	long.TxnID = TxnID(at - 100_000) // a long transaction's name takes three bytes
	delta := func(shard ShardID, bw bool) *DeltaRec {
		return &DeltaRec{DirtySet: []storage.PageID{3000, 3001, 3002}, WrittenSet: []storage.PageID{2999},
			FWLSN: at - 500, FirstDirty: 1, TCLSN: at - 100, ShardID: shard, BW: bw}
	}
	bw := func(shard ShardID) *BWRec {
		return &BWRec{WrittenSet: []storage.PageID{2999, 3000}, FWLSN: at - 500, ShardID: shard}
	}
	for _, tc := range []struct {
		name string
		rec  Record
		size int
	}{
		{"update, first of its txn, shard 0", update(NilLSN, 0), 16},
		{"update, chained, shard 0", update(prev, 0), 17},
		{"update, first of its txn, shard 3", update(NilLSN, 3), 18},
		{"update, chained, shard 3", update(prev, 3), 18},
		{"update, chained, named 100,000 bytes back", long, 19},
		// 70<<1|1 takes two bytes, the after-middle's length one more, and
		// the tail one.
		{"update, 70-byte before-middle, 10-byte after", &UpdateRec{TxnID: txn, KeyVal: key,
			OldVal: bytes.Repeat([]byte("a"), 70), NewVal: bytes.Repeat([]byte("b"), 10), PageID: pid, PrevLSN: prev}, 94},
		{"final CLR of a length-changing update (undoNext nil)", &CLRRec{TxnID: txn, KeyVal: key, Kind: CLRUndoUpdate,
			Skip: 20, Tail: 46, RestoreVal: []byte("abc"), PageID: pid, PrevLSN: prev}, 16},
		{"final CLR of an in-place update (undoNext nil)", &CLRRec{TxnID: txn, KeyVal: key, Kind: CLRUndoUpdate,
			Skip: 20, InPlace: true, RestoreVal: []byte("abc"), PageID: pid, PrevLSN: prev}, 15},
		// The txn field alone: the transaction's first record is 40 bytes
		// back, or 100,000.
		{"commit of a one-update txn", &CommitRec{TxnID: txn}, 3},
		{"abort of a long txn", &AbortRec{TxnID: long.TxnID}, 5},
		// 2 header, 1+3×2 dirty, 1+2 written, 3 fwLSN, 1 firstDirty, 3
		// tcLSN; on shard 2 also the empty DirtyLSNs' count and the shard.
		// The BW mark is the low bit of the written count: no byte more.
		{"∆, shard 0", delta(0, false), 19},
		{"∆, shard 2", delta(2, false), 21},
		{"∆ marked as its batch's BW, shard 0", delta(0, true), 19},
		{"∆ marked as its batch's BW, shard 2", delta(2, true), 21},
		// 2 header, 1 count, 2+1 pages (3000 one above 2999), 3 fwLSN.
		{"BW, shard 0", bw(0), 9},
		{"BW, shard 2", bw(2), 10},
	} {
		if got := len(encodeFrame(tc.rec, at)); got != tc.size {
			t.Errorf("%s: %d bytes framed, want %d", tc.name, got, tc.size)
		}
	}
}

// TestFrameBytes pins the exact frame of one record of every kind at LSN
// 1000, field by field, where TestRecordSizes pins lengths alone: a
// reordered or re-spelt field of the same width fails here. Every
// record sits on shard 2, names its transaction 40 bytes back and
// points back 10 (its prev) and 20 (a CLR's undoNext); key 300 is the
// varint 172 2. Each frame must also decode and re-encode to itself.
func TestFrameBytes(t *testing.T) {
	const at = LSN(1000)
	txn, prev, undoNext := TxnID(at-40), at-10, at-20
	for _, tc := range []struct {
		name string
		rec  Record
		want []byte
	}{
		// type, body length, txn, key, skip 1, one byte each side
		// (1<<1), before and after middles, pid, prev, shard.
		{"update in place", &UpdateRec{TxnID: txn, KeyVal: 300, OldVal: []byte("abc"), NewVal: []byte("axc"), PageID: 9, ShardID: 2, PrevLSN: prev},
			[]byte{1, 10, 40, 172, 2, 1, 2, 'b', 'x', 9, 10, 2}},
		// skip 2, an empty before-middle (0<<1|1), the after-middle
		// behind its length, tail 1, pid, prev, shard.
		{"update changing the row's length", &UpdateRec{TxnID: txn, KeyVal: 300, OldVal: []byte("abc"), NewVal: []byte("abxyc"), PageID: 9, ShardID: 2, PrevLSN: prev},
			[]byte{1, 12, 40, 172, 2, 2, 1, 2, 'x', 'y', 1, 9, 10, 2}},
		{"insert", &InsertRec{TxnID: txn, KeyVal: 300, Val: []byte("row"), PageID: 9, ShardID: 2, PrevLSN: prev},
			[]byte{2, 10, 40, 172, 2, 3, 'r', 'o', 'w', 9, 10, 2}},
		{"delete", &DeleteRec{TxnID: txn, KeyVal: 300, OldVal: []byte("row"), PageID: 9, ShardID: 2, PrevLSN: prev},
			[]byte{3, 10, 40, 172, 2, 3, 'r', 'o', 'w', 9, 10, 2}},
		// kind 1<<1|1 (an update's, in place), skip 1, no tail, the
		// restored middle, pid, prev, undoNext, shard.
		{"CLR of an update", &CLRRec{TxnID: txn, KeyVal: 300, Kind: CLRUndoUpdate, Skip: 1, InPlace: true, RestoreVal: []byte("b"), PageID: 9, ShardID: 2, UndoNextLSN: undoNext, PrevLSN: prev},
			[]byte{6, 11, 40, 172, 2, 3, 1, 1, 'b', 9, 10, 20, 2}},
		// kind 2<<1, skip 0, tail 0, nothing to restore.
		{"CLR of an insert", &CLRRec{TxnID: txn, KeyVal: 300, Kind: CLRUndoInsert, PageID: 9, ShardID: 2, UndoNextLSN: undoNext, PrevLSN: prev},
			[]byte{6, 11, 40, 172, 2, 4, 0, 0, 0, 9, 10, 20, 2}},
		// kind 3<<1, skip 0, tail 0, the whole row.
		{"CLR of a delete", &CLRRec{TxnID: txn, KeyVal: 300, Kind: CLRUndoDelete, RestoreVal: []byte("row"), PageID: 9, ShardID: 2, UndoNextLSN: undoNext, PrevLSN: prev},
			[]byte{6, 14, 40, 172, 2, 6, 0, 0, 3, 'r', 'o', 'w', 9, 10, 20, 2}},
		{"commit", &CommitRec{TxnID: txn}, []byte{4, 1, 40}},
		{"abort", &AbortRec{TxnID: txn}, []byte{5, 1, 40}},
		// DirtySet (count, pages), written count 2<<1 and gaps 5 2,
		// FW-LSN 970, FirstDirty 1, TC-LSN 995, no DirtyLSNs, shard.
		{"∆", &DeltaRec{DirtySet: []storage.PageID{9, 12}, WrittenSet: []storage.PageID{5, 7}, FWLSN: at - 30, FirstDirty: 1, TCLSN: at - 5, ShardID: 2},
			[]byte{10, 13, 2, 9, 12, 4, 5, 2, 202, 7, 1, 227, 7, 0, 2}},
		// The same with the BW mark in the written count: 2<<1|1.
		{"∆ marked as its batch's BW", &DeltaRec{DirtySet: []storage.PageID{9, 12}, WrittenSet: []storage.PageID{5, 7}, FWLSN: at - 30, FirstDirty: 1, TCLSN: at - 5, ShardID: 2, BW: true},
			[]byte{10, 13, 2, 9, 12, 5, 5, 2, 202, 7, 1, 227, 7, 0, 2}},
		{"BW", &BWRec{WrittenSet: []storage.PageID{5, 7}, FWLSN: at - 30, ShardID: 2},
			[]byte{9, 6, 2, 5, 2, 202, 7, 2}},
		// root, height, next PID, two images (pid, length, bytes), shard.
		{"SMO", &SMORec{Meta: TreeMeta{Root: 3, Height: 2, NextPID: 12}, Images: []PageImage{{3, []byte("ab")}, {11, []byte("cd")}}, ShardID: 2},
			[]byte{11, 13, 3, 2, 12, 2, 3, 2, 'a', 'b', 11, 2, 'c', 'd', 2}},
		{"begin checkpoint", &BeginCkptRec{}, []byte{7, 0}},
		// begin LSN 950, one active transaction (txn, last LSN 990), two
		// routes (start, shard).
		{"end checkpoint", &EndCkptRec{BeginLSN: at - 50, Active: []ActiveTxn{{TxnID: txn, LastLSN: at - 10}}, Routes: []RouteEntry{{Start: 0, Shard: 0}, {Start: 500, Shard: 1}}},
			[]byte{8, 12, 182, 7, 1, 40, 222, 7, 2, 0, 0, 244, 3, 1}},
		{"RSSP", &RSSPRec{RsspLSN: at - 50, ShardID: 2}, []byte{12, 3, 182, 7, 2}},
	} {
		got := encodeFrame(tc.rec, at)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: framed as %v, pinned %v. A changed frame is a new log format: "+
				"bump segVersion (now %d), add %d to TestOpenLogDirRefusesOldFormat's list, and re-pin here",
				tc.name, got, tc.want, segVersion, segVersion)
			continue
		}
		rec, end, err := decodeFrame(got, at, at)
		if err != nil || end != at+LSN(len(got)) || !bytes.Equal(encodeFrame(rec, at), got) {
			t.Errorf("%s: decoded to %+v (end %v, %v), which does not re-encode to its frame", tc.name, rec, end, err)
		}
	}
}

// TestQuickDeltaRoundTrip fuzzes ∆-record encode/decode including the
// perfect-DPT DirtyLSNs variant and the BW mark.
func TestQuickDeltaRoundTrip(t *testing.T) {
	const at = LSN(1 << 40)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		in := &DeltaRec{
			FWLSN:      LSN(rng.Uint64()),
			FirstDirty: uint32(rng.Intn(n + 1)),
			TCLSN:      LSN(rng.Uint64()),
			ShardID:    ShardID(rng.Intn(300)),
		}
		for i := 0; i < n; i++ {
			in.DirtySet = append(in.DirtySet, storage.PageID(rng.Uint32()|1))
		}
		for i := 0; i < rng.Intn(20); i++ {
			pid := storage.PageID(rng.Uint32() | 1)
			if i > 0 && rng.Intn(4) == 0 {
				pid = in.WrittenSet[i-1] // flushed twice in the interval
			}
			in.WrittenSet = append(in.WrittenSet, pid)
		}
		slices.Sort(in.WrittenSet)
		in.BW = len(in.WrittenSet) > 0 && rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			for range in.DirtySet {
				// Any distance a pointer can span, one byte to six.
				in.DirtyLSNs = append(in.DirtyLSNs, at-1-LSN(rng.Int63n(int64(at-FirstLSN())))>>uint(rng.Intn(40)))
			}
		}
		body, err := in.encodeBody(nil, at)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		var out DeltaRec
		if err := out.decodeBody(body, at); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		normalize(in)
		normalize(&out)
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCorruptBodiesDontPanic feeds random bytes to every decoder;
// they must return errors, never panic.
func TestQuickCorruptBodiesDontPanic(t *testing.T) {
	types := []Type{TypeUpdate, TypeInsert, TypeDelete, TypeCommit, TypeAbort, TypeCLR,
		TypeBeginCkpt, TypeEndCkpt, TypeBW, TypeDelta, TypeSMO, TypeRSSP}
	f := func(raw []byte, pick uint8, at uint32) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic: %v", r)
				ok = false
			}
		}()
		typ := types[int(pick)%len(types)]
		rec, err := newRecord(typ)
		if err != nil {
			return false
		}
		_ = rec.decodeBody(raw, FirstLSN()+LSN(at)) // must not panic; error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTypeStrings(t *testing.T) {
	for _, typ := range []Type{TypeUpdate, TypeInsert, TypeDelete, TypeCommit, TypeAbort,
		TypeCLR, TypeBeginCkpt, TypeEndCkpt, TypeBW, TypeDelta, TypeSMO, TypeRSSP} {
		if s := typ.String(); s == "" || s == fmt.Sprintf("type(%d)", uint8(typ)) {
			t.Fatalf("missing String for type %d", typ)
		}
	}
}
