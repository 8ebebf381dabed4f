package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"logrec/internal/sim"
	"logrec/internal/storage"
)

func sampleRecords() []Record {
	return []Record{
		&UpdateRec{TxnID: 7, TableID: 1, KeyVal: 42, OldVal: []byte("old"), NewVal: []byte("new"), PageID: 99, PrevLSN: 16},
		&InsertRec{TxnID: 8, TableID: 1, KeyVal: 43, Val: []byte("v"), PageID: 100, PrevLSN: 0},
		&DeleteRec{TxnID: 9, TableID: 2, KeyVal: 44, OldVal: []byte("gone"), PageID: 101, PrevLSN: 24},
		&CommitRec{TxnID: 7, PrevLSN: 55},
		&AbortRec{TxnID: 8, PrevLSN: 66},
		&CLRRec{TxnID: 9, TableID: 2, KeyVal: 44, Kind: CLRUndoDelete, RestoreVal: []byte("gone"), PageID: 101, UndoNextLSN: 24, PrevLSN: 80},
		&BeginCkptRec{},
		&EndCkptRec{BeginLSN: 16, Active: []ActiveTxn{{TxnID: 3, LastLSN: 90}, {TxnID: 4, LastLSN: 95}}},
		&BWRec{WrittenSet: []storage.PageID{5, 6, 7}, FWLSN: 123},
		&DeltaRec{
			DirtySet:   []storage.PageID{10, 11, 12, 13},
			WrittenSet: []storage.PageID{10},
			FWLSN:      200, FirstDirty: 2, TCLSN: 300,
		},
		&DeltaRec{
			DirtySet: []storage.PageID{20, 21},
			FWLSN:    0, FirstDirty: 0, TCLSN: 400,
			DirtyLSNs: []LSN{401, 402},
		},
		&SMORec{
			Meta:   TreeMeta{TableID: 1, Root: 50, Height: 3, NextPID: 60},
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

func TestDeltaValidation(t *testing.T) {
	// A delta whose DirtyLSNs length mismatches DirtySet must fail to
	// decode.
	bad := &DeltaRec{
		DirtySet:  []storage.PageID{1, 2, 3},
		DirtyLSNs: []LSN{9},
	}
	body := bad.encodeBody(nil)
	var out DeltaRec
	if err := out.decodeBody(body); err == nil {
		t.Fatal("mismatched DirtyLSNs decoded without error")
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

// TestQuickUpdateRoundTrip fuzzes the patch encoding of update records
// and of the CLRs that compensate them: whatever whole images a
// producer hands over, the decoded record holds maximally trimmed
// middles, rebuilds either image from the other (and patches any other
// row that keeps the same ends), and re-encodes to the same bytes.
func TestQuickUpdateRoundTrip(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f := func(txn uint64, table uint32, key uint64, prefix, oldMid, newMid, suffix, other []byte, pid, shard uint32, prev uint64) bool {
		oldV, newV := cat(prefix, oldMid, suffix), cat(prefix, newMid, suffix)
		in := &UpdateRec{
			TxnID: TxnID(txn), TableID: TableID(table), KeyVal: key,
			OldVal: oldV, NewVal: newV,
			PageID: storage.PageID(pid), ShardID: ShardID(shard), PrevLSN: LSN(prev),
		}
		body := in.encodeBody(nil)
		var out UpdateRec
		if err := out.decodeBody(body); err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if out.TxnID != in.TxnID || out.TableID != in.TableID || out.KeyVal != key ||
			out.PageID != in.PageID || out.ShardID != in.ShardID || out.PrevLSN != in.PrevLSN {
			t.Logf("fields: %+v", out)
			return false
		}
		// Maximal: at least the ends the images were built with, and
		// nothing left to trim.
		if int(out.Skip+out.Tail) < len(prefix)+len(suffix) || int(out.Skip)+len(out.OldVal)+int(out.Tail) != len(oldV) {
			t.Logf("skip %d tail %d for ends %d+%d", out.Skip, out.Tail, len(prefix), len(suffix))
			return false
		}
		if p, s := commonEnds(out.OldVal, out.NewVal); p+s != 0 {
			return false
		}
		if !bytes.Equal(out.encodeBody(nil), body) {
			t.Logf("re-encode differs")
			return false
		}
		// Both forms — whole images and middles — rebuild both rows.
		for _, r := range []*UpdateRec{in, &out} {
			after, err1 := r.After(oldV)
			before, err2 := r.Before(newV)
			if err1 != nil || err2 != nil || !bytes.Equal(after, newV) || !bytes.Equal(before, oldV) {
				t.Logf("after %q %v, before %q %v", after, err1, before, err2)
				return false
			}
		}
		// Any row with the same ends takes the patch.
		row := cat(oldV[:out.Skip], other, oldV[len(oldV)-int(out.Tail):])
		want := cat(oldV[:out.Skip], out.NewVal, oldV[len(oldV)-int(out.Tail):])
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

		// The compensation is the same patch turned round.
		clr := out.Compensation()
		var back CLRRec
		if err := back.decodeBody(clr.encodeBody(nil)); err != nil {
			t.Logf("CLR decode: %v", err)
			return false
		}
		normalize(clr)
		normalize(&back)
		if !reflect.DeepEqual(clr, &back) || back.UndoNextLSN != in.PrevLSN {
			return false
		}
		restored, err := back.After(newV)
		return err == nil && bytes.Equal(restored, oldV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceBounds: a patch that keeps more bytes than the row has is
// ErrBadRecord, never a panic, at any skip and tail.
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
	}{&UpdateRec{Skip: 3, Tail: 2}, &CLRRec{Kind: CLRUndoUpdate, Skip: 5}} {
		if _, err := r.After([]byte("abcd")); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("%T.After on a short row: %v, want ErrBadRecord", r, err)
		}
	}
}

// TestVarintBodiesAreCanonical: one record has one byte string. An
// over-long varint, a value too wide for its field and an update whose
// middles still share an end are all refused.
func TestVarintBodiesAreCanonical(t *testing.T) {
	good := (&CommitRec{TxnID: 5, PrevLSN: 300}).encodeBody(nil)
	var c CommitRec
	if err := c.decodeBody(good); err != nil || c.TxnID != 5 || c.PrevLSN != 300 {
		t.Fatalf("canonical body: %+v, %v", c, err)
	}
	overlong := []byte{0x85, 0x00, 0xAC, 0x02} // txn 5 spelt in two bytes
	if err := c.decodeBody(overlong); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("over-long varint decoded: %v", err)
	}
	wide := putUvarint(putUvarint(nil, 1), 1<<32) // table ID beyond 32 bits
	var u UpdateRec
	if err := u.decodeBody(wide); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("33-bit table ID decoded: %v", err)
	}
	// txn 1, table 1, key 1, skip 0, tail 0, old "ab", new "ac", pid, shard, prev.
	untrimmed := []byte{1, 1, 1, 0, 0, 2, 'a', 'b', 2, 'a', 'c', 1, 0, 0}
	if err := u.decodeBody(untrimmed); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("untrimmed patch decoded: %v", err)
	}
	trimmed := (&UpdateRec{TxnID: 1, TableID: 1, KeyVal: 1, OldVal: []byte("ab"), NewVal: []byte("ac"), PageID: 1}).encodeBody(nil)
	if want := []byte{1, 1, 1, 1, 0, 1, 'b', 1, 'c', 1, 0, 0}; !bytes.Equal(trimmed, want) {
		t.Fatalf("encoded %v, want %v", trimmed, want)
	}
}

// TestQuickDeltaRoundTrip fuzzes ∆-record encode/decode including the
// perfect-DPT DirtyLSNs variant.
func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		in := &DeltaRec{
			FWLSN:      LSN(rng.Uint64()),
			FirstDirty: uint32(rng.Intn(n + 1)),
			TCLSN:      LSN(rng.Uint64()),
		}
		for i := 0; i < n; i++ {
			in.DirtySet = append(in.DirtySet, storage.PageID(rng.Uint32()))
		}
		for i := 0; i < rng.Intn(20); i++ {
			in.WrittenSet = append(in.WrittenSet, storage.PageID(rng.Uint32()))
		}
		if rng.Intn(2) == 0 {
			for range in.DirtySet {
				in.DirtyLSNs = append(in.DirtyLSNs, LSN(rng.Uint64()))
			}
		}
		body := in.encodeBody(nil)
		var out DeltaRec
		if err := out.decodeBody(body); err != nil {
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
	f := func(raw []byte, pick uint8) (ok bool) {
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
		_ = rec.decodeBody(raw) // must not panic; error is fine
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
