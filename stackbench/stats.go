package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail figure resting on fewer is one unlucky scheduling event.
const minBeyond = 10

// gatedTail is the tail percentile the end-to-end metrics report and a
// regression check compares. On two shared CPUs the p99 of a closed loop
// is set by preemptions from outside the process: across seeds it spread
// by 0.07 to 0.73 of its median depending on the machine's other load,
// while the p90 spread by 0.03 to 0.10, like the p50. Higher tails are
// still computed and reported beside it, ungated.
const gatedTail = 0.9

// shownTails are the higher percentiles reported beside the gated ones
// wherever a boot has enough samples for them.
var shownTails = []float64{0.99, 0.999}

// supports reports whether n samples leave minBeyond beyond the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-6
}

// percentile returns the q-quantile of sorted (nearest rank on the
// interpolated position, as numpy's "linear" method). sorted must be
// ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the middle value of vs (mean of the two middle values for
// an even count) without modifying vs.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	return percentile(s, 0.5)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quartiles returns Q1, Q2, Q3 of vs by the "exclusive" method — the one
// Python's statistics.quantiles(vs, n=4) uses — so spreads computed here
// match spreads computed by anyone re-checking the runs in Python. Needs at
// least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", n=4: m = n+1,
		// j = i*m // 4, delta = i*m - j*4, result = (x[j-1]*(4-delta) +
		// x[j]*delta) / 4, with j clamped to [1, n-1].
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// latencies is one timed series in microseconds.
type latencies []float64
