package wal

import (
	"encoding/binary"
	"fmt"
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

// BenchmarkScanLog reads a log of one-field updates end to end, inline
// and on 1, 2 and 4 decode workers: a 1 MiB log is a single segment, an
// 8 MiB log eight of them.
func BenchmarkScanLog(b *testing.B) {
	for _, mib := range []int{1, 8} {
		l := NewLog()
		recs := 0
		for ; l.EndLSN() < LSN(mib<<20-1024); recs++ {
			l.MustAppend(benchUpdateRec(recs))
		}
		l.Flush()
		if l.Segments() != mib {
			b.Fatalf("%d MiB log has %d segments", mib, l.Segments())
		}
		for _, w := range []struct {
			name  string
			width int
		}{{"inline", 0}, {"w1", 1}, {"w2", 2}, {"w4", 4}} {
			b.Run(fmt.Sprintf("%dMiB/%s", mib, w.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc := l.NewParallelScanner(FirstLSN(), nil, ScanCost{}, w.width)
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
					sc.Close()
					if n != recs {
						b.Fatalf("scanned %d of %d records", n, recs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recs), "ns/record")
				b.ReportMetric(float64(l.EndLSN()-FirstLSN())/float64(recs), "B/record")
			})
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
