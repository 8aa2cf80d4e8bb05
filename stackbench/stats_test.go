package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.1, 14}, {0.99, 49.6},
	} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The tail rule: a percentile is shown only with at least ten samples
// beyond it, so 5,000 samples show a p99 but not a p999.
func TestSupportsPicksP99OverP999(t *testing.T) {
	for _, c := range []struct {
		n         int
		q         float64
		supported bool
	}{
		{5000, 0.99, true},
		{5000, 0.999, false}, // would rest on 5 samples
		{9999, 0.999, false}, // one short of ten beyond
		{10000, 0.999, true},
		{999, 0.99, false},
		{100, gatedTail, true},
		{99, gatedTail, false},
	} {
		if got := supports(c.n, c.q); got != c.supported {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.q, got, c.supported)
		}
	}
}

func TestTailKey(t *testing.T) {
	for q, want := range map[float64]string{0.9: "round_p90_us", 0.99: "round_p99_us", 0.999: "round_p999_us"} {
		if got := tailKey("round", q); got != want {
			t.Errorf("tailKey(%v) = %q, want %q", q, got, want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(vs, n=4), which
// is how anyone re-checking the run-to-run spread computes it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
