package main

import (
	"math/rand"
	"testing"
)

// shuffled returns 1..n in a seeded random order.
func shuffled(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p50   float64
		tailQ float64
		tail  float64
	}{
		{n: 0},
		{n: 1, p50: 1},
		{n: 5, p50: 3},                              // no percentile has 10 samples beyond it
		{n: 19, p50: 10},                            // 9 beyond the median: still too few
		{n: 20, p50: 10, tailQ: 0.5, tail: 10},      // exactly 10 beyond the median
		{n: 100, p50: 50, tailQ: 0.9, tail: 90},     // p99 would have 1 beyond
		{n: 999, p50: 500, tailQ: 0.9, tail: 900},   // p99 would have 9 beyond
		{n: 1000, p50: 500, tailQ: 0.99, tail: 990}, // p99 has exactly 10 beyond
		{n: 100000, p50: 50000, tailQ: 0.9999, tail: 99990},
		{n: 250000, p50: 125000, tailQ: 0.9999, tail: 249975},
	} {
		s := summarize(shuffled(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.TailQ != tc.tailQ || s.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50=%v tail p%v=%v", tc.n, s, tc.p50, tc.tailQ*100, tc.tail)
		}
		if s.TailQ > 0 {
			beyond := 0
			for _, x := range shuffled(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, s.TailQ*100, beyond)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 0.25: 10, 0.26: 20, 0.5: 20, 0.75: 30, 0.99: 40, 1: 40} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
