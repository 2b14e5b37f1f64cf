package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {-5, 10}, {120, 50},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The rate of a window is the p90 of its segments: four interfered segments
// in forty must not move it, which is the point of the estimator.
func TestSegmentRateIgnoresInterferedSegments(t *testing.T) {
	clean := make([]float64, 40)
	for i := range clean {
		clean[i] = 1000 + float64(i%5)
	}
	noisy := append([]float64(nil), clean...)
	for _, i := range []int{3, 11, 19, 30} {
		noisy[i] = 400
	}
	a, b := segmentRate(clean), segmentRate(noisy)
	if math.Abs(a-b)/a > 0.002 {
		t.Errorf("p90 of segments moved from %v to %v under interference", a, b)
	}
	if m1, m2 := median(clean), median(noisy); m1 == m2 {
		t.Logf("median did not move either (%v)", m1)
	}
	if got := segmentRate(seq(41)); math.Abs(got-37) > 1e-9 {
		t.Errorf("segmentRate(1..41) = %v, want 37", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{20000, 99.9}, // 20 beyond p99.9
		{10000, 99.9}, // exactly 10
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 75},
		{40, 75},
		{39, 100}, // nothing qualifies: report the maximum
		{1, 100},
	} {
		pct, v := tail(seq(c.n))
		if pct != c.wantPct {
			t.Errorf("tail of %d samples: p%v, want p%v", c.n, pct, c.wantPct)
		}
		if want := percentile(seq(c.n), pct); v != want {
			t.Errorf("tail of %d samples: value %v, want %v", c.n, v, want)
		}
	}
}
