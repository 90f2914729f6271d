package main

import (
	"math"
	"sort"
)

// summary is one metric's spread within a run: median, quartiles and
// sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs, computed like
// Python's statistics.median and statistics.quantiles(n=4) (the
// "exclusive" method) so they read the same as the acceptance check's.
func summarize(xs []float64) summary {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank position of percentile pct in n
// samples.
func rank(n int, pct float64) int {
	r := int(math.Ceil(pct / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyond is how many samples a tail percentile must leave above it.
const minBeyond = 10

// tail returns the latency at the highest whole percentile, at most the
// 95th, that leaves at least minBeyond samples above it, and which
// percentile that was. Capping at 95 keeps lat_p95_ms the same
// percentile from run to run once a run has 200 samples. With too few
// samples for any tail (under 2*minBeyond+1) it falls back to the
// median and reports percentile 50.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	for p := 95; p > 50; p-- {
		r := rank(n, float64(p))
		if n-r >= minBeyond {
			return s[r-1], float64(p)
		}
	}
	return summarize(s).Median, 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
