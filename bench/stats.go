package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// bandMean estimates the p-th percentile of a small sample as the mean
// of the samples ranked between the (p-5)-th and (p+5)-th percentile.
// The samples here are per-operation typical latencies of a fixed op
// list — a few dozen values in plateaus, one per query shape — and a
// nearest-rank percentile that happens to sit at the edge of a plateau
// flips between two values from run to run. The band mean moves
// smoothly instead, and still reports what the operations around that
// rank cost.
func bandMean(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := float64(len(s))
	lo := int(math.Floor((p - 5) / 100 * n))
	hi := int(math.Ceil((p + 5) / 100 * n))
	lo, hi = max(lo, 0), min(hi, len(s))
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// iqm is the interquartile mean: the mean of the samples left after
// dropping the lowest and highest quarter (rounded down). One slow boot
// in nine cannot move it, and unlike a median it still averages five
// samples.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method), which is how the benchmark contract
// measures spread. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the
// median: the contract's measure of run-to-run spread.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// rangeShare is (max - min) / median.
func rangeShare(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
