package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted. NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// segmentRate is the estimator every throughput number in this benchmark
// uses: the 90th percentile of the per-segment rates, i.e. the rate of the
// least-interfered tenth of the timed window. On a shared 2-core host the
// median segment moves 10-30 % between identical runs while this holds within
// a few percent (see README, "How a number is taken").
func segmentRate(rates []float64) float64 { return percentile(rates, 90) }

// leastInterfered is the same estimator for costs (latencies, set-up times,
// CPU per cycle), where interference only ever adds: the 10th percentile.
func leastInterfered(costs []float64) float64 { return percentile(costs, 10) }

// tailPermille are the candidates for the reported latency tail, highest
// first, in tenths of a percent so that the sample count test is exact.
var tailPermille = []int{999, 990, 950, 900, 750}

// tail picks the highest percentile that still has at least ten samples
// beyond it and returns that percentile and its value. With fewer than 40
// samples no candidate qualifies and the maximum is reported as p100.
func tail(xs []float64) (pct, value float64) {
	for _, pm := range tailPermille {
		if len(xs)*(1000-pm) >= 10*1000 {
			p := float64(pm) / 10
			return p, percentile(xs, p)
		}
	}
	return 100, percentile(xs, 100)
}
