package main

import (
	"encoding/json"
	"math"
	"math/bits"
)

// hist is a log-bucketed histogram of non-negative int64 samples
// (latencies in nanoseconds): values below 128 are counted exactly,
// larger ones in 128 buckets per power of two, so a bucket is under
// 0.8% wide. Record touches one preallocated counter — no allocation
// on the clock — and percentiles interpolate inside the bucket.
type hist struct {
	count    int64
	sum      int64
	min, max int64
	buckets  [histBuckets]int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 57 octaves above the exact range cover every positive int64.
	histBuckets = histSub * (64 - histSubBits + 1)
)

func newHist() *hist { return &hist{min: math.MaxInt64} }

func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// bucketBounds returns the smallest value of bucket i and the bucket's
// width.
func bucketBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	shift := i/histSub - 1
	return int64(histSub+i%histSub) << shift, 1 << shift
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	h.sum += o.sum
	h.min = min(h.min, o.min)
	h.max = max(h.max, o.max)
}

func (h *hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// percentile returns the value below which the fraction q of the
// samples fall, interpolating linearly inside the bucket and never
// leaving the recorded [min, max].
func (h *hist) percentile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, width := bucketBounds(i)
			v := float64(lo) + float64(width)*(rank-seen)/float64(n)
			return math.Min(math.Max(v, float64(h.min)), float64(h.max))
		}
		seen += float64(n)
	}
	return float64(h.max)
}

// MarshalJSON writes the non-empty buckets as [lower bound, count]
// pairs.
func (h *hist) MarshalJSON() ([]byte, error) {
	out := struct {
		Count   int64      `json:"count"`
		Sum     int64      `json:"sum"`
		Min     int64      `json:"min"`
		Max     int64      `json:"max"`
		Buckets [][2]int64 `json:"buckets"`
	}{Count: h.count, Sum: h.sum, Max: h.max}
	if h.count > 0 {
		out.Min = h.min
	}
	for i, n := range h.buckets {
		if n > 0 {
			lo, _ := bucketBounds(i)
			out.Buckets = append(out.Buckets, [2]int64{lo, n})
		}
	}
	return json.Marshal(out)
}
