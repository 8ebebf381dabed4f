package wal

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"logrec/internal/storage"
)

// benchUpdateRec is a representative update: a 92-byte row whose 8-byte
// little-endian version counter (at offset 50) goes from i to i+1, as a
// producer hands it over — two whole images. Callers chain PrevLSN to
// the record appended before, the distance a ten-update transaction
// sees.
func benchUpdateRec(i int) *UpdateRec {
	old, nw := make([]byte, 92), make([]byte, 92)
	for j := range old {
		old[j] = byte('a' + j%26)
	}
	copy(nw, old)
	binary.LittleEndian.PutUint64(old[50:], uint64(i))
	binary.LittleEndian.PutUint64(nw[50:], uint64(i)+1)
	return &UpdateRec{
		TxnID:  TxnID(i),
		KeyVal: uint64(i * 17),
		OldVal: old,
		NewVal: nw,
		PageID: storage.PageID(i),
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
	var err error
	for i, prev := 0, NilLSN; i < b.N; i++ {
		rec := recs[i%len(recs)]
		rec.PrevLSN = prev
		if prev, err = l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(l.EndLSN()-FirstLSN())/float64(b.N), "B/record")
}

// benchDeltaRec is a ∆ record over the page numbers of a table of a few
// tens of thousands of pages: dirtied in no order, written pages listed
// in the ascending order the log keeps them.
func benchDeltaRec(dirty, written int) *DeltaRec {
	rec := &DeltaRec{FWLSN: 1000, FirstDirty: uint32(dirty / 2), TCLSN: 2000}
	for i := 0; i < dirty; i++ {
		rec.DirtySet = append(rec.DirtySet, storage.PageID(2+i*7919%30000))
	}
	for i := 0; i < written; i++ {
		rec.WrittenSet = append(rec.WrittenSet, storage.PageID(2+i*104729%30000))
	}
	slices.Sort(rec.WrittenSet)
	return rec
}

func BenchmarkAppendDelta(b *testing.B) {
	l := NewLog()
	rec := benchDeltaRec(256, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDelta decodes a ∆ record the size update_spill writes:
// the page lists are what BenchmarkScanLog's updates do not have.
func BenchmarkDecodeDelta(b *testing.B) {
	l := NewLog()
	lsn := l.MustAppend(benchDeltaRec(65, 32))
	l.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Get(lsn); err != nil {
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
		for prev := NilLSN; l.EndLSN() < LSN(mib<<20-1024); recs++ {
			rec := benchUpdateRec(recs)
			rec.PrevLSN = prev
			prev = l.MustAppend(rec)
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
					sc := l.newScanner(FirstLSN(), nil, ScanCost{}, w.width)
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
