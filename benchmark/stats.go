package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s, n := sorted(xs), len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s, n := sorted(xs), len(xs)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
