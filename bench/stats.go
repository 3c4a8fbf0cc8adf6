package bench

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a workload's tail may be reported at,
// highest first. A workload names its preferred rung (calibrated so the
// value repeats within the metric's bound); tailPercentile steps down the
// ladder when a short run leaves fewer than minBeyond samples past it.
var tailLadder = []float64{99.9, 99.75, 99.5, 99, 98.75, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// sorted: the smallest value with at least q% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, q)-1]
}

// rank is the 1-based nearest-rank position of the q-th percentile in
// an n-sample set, clamped to [1, n]. The epsilon keeps float error in
// q/100·n from pushing an exact rank up by one.
func rank(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples of an n-sample set that lie strictly past
// the nearest-rank q-th percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// tailPercentile picks the reported tail percentile: the preferred rung,
// or the highest lower rung of tailLadder that leaves at least minBeyond
// samples past it. With too few samples for any rung it returns the
// median's 50.
func tailPercentile(n int, preferred float64) float64 {
	for _, q := range tailLadder {
		if q > preferred {
			continue
		}
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 50
}

// median returns the median of xs (mean of the middle two for even
// lengths) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. It needs at least
// two values; with one it returns that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// iqrShare is the quartile distance as a share of the median: the
// run-to-run spread the benchmark's bounds are judged against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms and us convert durations to the float units metrics are reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsTo sorts durations and converts them with conv.
func durationsTo(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	sort.Float64s(out)
	return out
}
