package main

import "sort"

// quantile returns the exact q-quantile (nearest rank: the smallest
// value with at least q of the sample at or below it) of an ascending
// sample, and 0 for an empty one.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// ceil(q*n) without float rounding surprises at exact multiples.
	k := int(q * float64(n))
	if float64(k) < q*float64(n) {
		k++
	}
	k = min(max(k, 1), n)
	return sorted[k-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

// usQuantile is the q-quantile of a latency sample in ns, in µs.
func usQuantile(ns []int64, q float64) float64 {
	return float64(quantile(sortedCopy(ns), q)) / 1e3
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// which is what the acceptance driver computes spreads with. It needs
// at least two values. q2 is the plain median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
