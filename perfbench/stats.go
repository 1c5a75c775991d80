package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a latency summary may report as
// its tail, from the highest down.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie above a percentile before the
// summary reports it: a tail read from fewer is one outlier, not a
// percentile.
const minBeyond = 10

// summary is a latency distribution reduced to what the benchmark
// reports: the sample count, the median, and the highest percentile on
// tailLadder with at least minBeyond samples beyond it (TailQ is 0 when
// no percentile qualifies).
type summary struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps a product like 0.99*n that rounds just above an integer
// from skipping a rank.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailQuantile returns the highest percentile on tailLadder that has at
// least minBeyond of n samples above it, or 0 when none does.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// summarize sorts samples in place and reduces them to a summary.
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	s := summary{N: len(samples), P50: quantile(samples, 0.5), TailQ: tailQuantile(len(samples))}
	if s.TailQ > 0 {
		s.Tail = quantile(samples, s.TailQ)
	}
	return s
}
