package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest sample with at least ⌈q·n⌉ samples at or
// below it. It returns NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(1, min(rank, n))
	return sorted[rank-1]
}

// windowedPercentile splits vs, in the order measured, into consecutive
// windows of about w samples and returns the median over the windows of
// each window's q-quantile. A stall of the host shorter than half the run
// moves only the windows it falls in, where it would move a percentile of
// the whole run. It returns NaN for an empty slice.
func windowedPercentile(vs []float64, w int, q float64) float64 {
	k := max(1, len(vs)/max(w, 1))
	per := make([]float64, 0, k)
	for j := 0; j < k; j++ {
		win := vs[j*len(vs)/k : (j+1)*len(vs)/k]
		per = append(per, percentile(sortedCopy(win), q))
	}
	return median(per)
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// highestTail returns the highest of tailQuantiles whose nearest-rank
// sample has at least minBeyond samples above it in a set of n, or 0 when
// not even the median qualifies.
func highestTail(n, minBeyond int) float64 {
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q*float64(n) - 1e-9))
		if rank >= 1 && n-rank >= minBeyond {
			return q
		}
	}
	return 0
}

// sortedCopy returns the values in ascending order without touching vs.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median returns the nearest-rank median of vs.
func median(vs []float64) float64 { return percentile(sortedCopy(vs), 0.5) }

// mean returns the arithmetic mean of vs, or 0 when vs is empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// sum returns the sum of vs.
func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// ratio returns a/b, or 0 when b is 0, so derived rates never become NaN
// or Inf in the JSON result.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
