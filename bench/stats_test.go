package bench

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		preferred float64
		want      float64
	}{
		{1000, 99, 99},       // 10 beyond p99
		{999, 99, 98.75},     // 9 beyond p99: step down
		{6400, 99.75, 99.75}, // 16 beyond
		{6400, 99, 99},       // never above the preferred rung
		{3000, 99.9, 99.5},   // 3 beyond p99.9, 7 beyond p99.75, 15 beyond p99.5
		{5, 99, 50},          // too few for any tail
	} {
		if got := tailPercentile(c.n, c.preferred); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.preferred, got, c.want)
		}
		if q := tailPercentile(c.n, c.preferred); q != 50 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, q, beyond(c.n, q))
		}
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread rule is stated in. Expected values
// were computed with CPython 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0}, 1.25, 3.5, 9.0},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{0.81, 0.79, 0.85, 0.80, 0.90, 0.77, 0.83}, 0.79, 0.81, 0.85},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestIQRShareAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 102, 103, 104}
	wide := []float64{60, 80, 100, 130, 160} // quartile distance 0.75 of the median
	for _, c := range []struct {
		name       string
		a, b       []float64
		medianOnly bool
		want       string
	}{
		{"same", steady, steady, false, WithinBound},
		{"slower by more than the bound", steady, []float64{130, 131, 132, 133, 134}, false, Regressed},
		{"faster in every pair", steady, []float64{80, 81, 82, 83, 84}, false, Improved},
		{"spread beyond the bound", steady, wide, false, Unresolved},
		{"spread ignored for set-up", steady, wide, true, WithinBound},
		{"set-up median still bounded", steady, []float64{90, 130, 135, 140, 200}, true, Regressed},
	} {
		if got := judge(c.a, c.b, false, 0.25, c.medianOnly).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
