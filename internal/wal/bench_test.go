package wal

import (
	"encoding/binary"
	"testing"

	"logrec/internal/storage"
)

// benchUpdateRec is a representative update: a 92-byte row whose 8-byte
// little-endian version counter (at offset 50) goes from i to i+1, as a
// producer hands it over — two whole images.
func benchUpdateRec(i int) *UpdateRec {
	old, nw := make([]byte, 92), make([]byte, 92)
	for j := range old {
		old[j] = byte('a' + j%26)
	}
	copy(nw, old)
	binary.LittleEndian.PutUint64(old[50:], uint64(i))
	binary.LittleEndian.PutUint64(nw[50:], uint64(i)+1)
	return &UpdateRec{
		TxnID:   TxnID(i),
		TableID: 1,
		KeyVal:  uint64(i * 17),
		OldVal:  old,
		NewVal:  nw,
		PageID:  storage.PageID(i),
		PrevLSN: LSN(i),
	}
}

func BenchmarkAppendUpdate(b *testing.B) {
	l := NewLog()
	recs := make([]*UpdateRec, 1024)
	for i := range recs {
		recs[i] = benchUpdateRec(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(l.EndLSN()-FirstLSN())/float64(b.N), "B/record")
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
	b.ReportAllocs()
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
	b.ReportMetric(float64(l.EndLSN()-FirstLSN())/10_000, "B/record")
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
