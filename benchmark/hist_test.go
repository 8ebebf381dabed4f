package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsAreContiguous(t *testing.T) {
	next := int64(0)
	for i := 0; i < histBuckets && next > -1; i++ {
		lo, width := bucketBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(lo + width - 1); got != i {
			t.Fatalf("bucketOf(%d) = %d, want %d", lo+width-1, got, i)
		}
		if lo > math.MaxInt64-width {
			return
		}
		next = lo + width
	}
}

// The histogram must agree with a sorted slice of the same samples to
// within one bucket width (1/128 of the value).
func TestPercentilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := newHist(), newHist()
	var ref []int64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 50 ns .. 50 ms, the range latencies take.
		v := int64(50 * math.Exp(rng.Float64()*math.Log(1e6)))
		ref = append(ref, v)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(b)
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if a.count != int64(len(ref)) || a.min != ref[0] || a.max != ref[len(ref)-1] {
		t.Fatalf("count/min/max = %d/%d/%d, want %d/%d/%d", a.count, a.min, a.max, len(ref), ref[0], ref[len(ref)-1])
	}
	var sum int64
	for _, v := range ref {
		sum += v
	}
	if a.sum != sum {
		t.Fatalf("sum = %d, want %d", a.sum, sum)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		want := float64(ref[min(int(q*float64(len(ref))), len(ref)-1)])
		got := a.percentile(q)
		if math.Abs(got-want) > want/histSub+1 {
			t.Errorf("p%g = %.0f, sorted slice says %.0f", q*100, got, want)
		}
	}
}

func TestHistEdgesAndJSON(t *testing.T) {
	h := newHist()
	if h.percentile(0.5) != 0 || h.mean() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	h.record(-5)
	h.record(3)
	h.record(math.MaxInt64)
	if h.min != 0 || h.max != math.MaxInt64 || h.count != 3 {
		t.Fatalf("min/max/count = %d/%d/%d", h.min, h.max, h.count)
	}
	buf, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Count   int64
		Buckets [][2]int64
	}
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 3 || len(back.Buckets) != 3 || back.Buckets[1] != [2]int64{3, 1} {
		t.Fatalf("round trip gave %+v", back)
	}
}
