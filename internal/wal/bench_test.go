package wal

import (
	"testing"

	"logrec/internal/storage"
)

func benchUpdateRec(i int) *UpdateRec {
	return &UpdateRec{
		TxnID:   TxnID(i),
		TableID: 1,
		KeyVal:  uint64(i * 17),
		OldVal:  make([]byte, 92),
		NewVal:  make([]byte, 92),
		PageID:  storage.PageID(i),
		PrevLSN: LSN(i),
	}
}

func BenchmarkAppendUpdate(b *testing.B) {
	l := NewLog()
	rec := benchUpdateRec(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.KeyVal = uint64(i * 17)
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(l.EndLSN()-FirstLSN()) / int64(b.N))
}

func BenchmarkAppendDelta(b *testing.B) {
	l := NewLog()
	rec := &DeltaRec{
		DirtySet:   make([]storage.PageID, 256),
		WrittenSet: make([]storage.PageID, 32),
		FWLSN:      1000, FirstDirty: 100, TCLSN: 2000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanLog(b *testing.B) {
	l := NewLog()
	for i := 0; i < 10_000; i++ {
		l.MustAppend(benchUpdateRec(i))
	}
	l.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := l.NewScanner(FirstLSN(), nil, ScanCost{})
		n := 0
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 10_000 {
			b.Fatalf("scanned %d", n)
		}
	}
}

func BenchmarkGetRandomAccess(b *testing.B) {
	l := NewLog()
	var lsns []LSN
	for i := 0; i < 10_000; i++ {
		lsns = append(lsns, l.MustAppend(benchUpdateRec(i)))
	}
	l.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Get(lsns[i%len(lsns)]); err != nil {
			b.Fatal(err)
		}
	}
}
