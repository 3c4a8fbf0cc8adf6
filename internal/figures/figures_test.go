package figures

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/netdag/netdag/internal/dse"
	"github.com/netdag/netdag/internal/wh"
)

// recordDir is the committed record that cmd/netdag-figures writes.
const recordDir = "../../examples/figures"

var (
	recordsOnce sync.Once
	recordsByW  map[int]*record
	recordsErr  error
)

// records computes the record once for the whole package, at Workers = 1
// and Workers = 4, keyed by worker count. The tables that run no
// scheduler are computed once and shared. The three parts run
// concurrently, which also has the race detector watch two solver-backed
// records computed at once.
func records(t *testing.T) map[int]*record {
	t.Helper()
	recordsOnce.Do(func() {
		seq, par := &record{}, &record{}
		var fixedErr, seqErr, parErr error
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); fixedErr = seq.fixed() }()
		go func() { defer wg.Done(); seqErr = seq.solve(1) }()
		go func() { defer wg.Done(); parErr = par.solve(4) }()
		wg.Wait()
		if recordsErr = errors.Join(fixedErr, seqErr, parErr); recordsErr != nil {
			return
		}
		par.bridge, par.fig3, par.a1 = seq.bridge, seq.fig3, seq.a1
		recordsByW = map[int]*record{1: seq, 4: par}
	})
	if recordsErr != nil {
		t.Fatal(recordsErr)
	}
	return recordsByW
}

// forEachRecord runs check on the record of each worker count.
func forEachRecord(t *testing.T, check func(t *testing.T, r *record)) {
	for _, w := range []int{1, 4} {
		r := records(t)[w]
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) { check(t, r) })
	}
}

// TestRecord regenerates the paper record at both worker counts and
// compares every file byte for byte with the committed copy.
func TestRecord(t *testing.T) {
	entries, err := os.ReadDir(recordDir)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(recordDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		committed[e.Name()] = data
	}
	forEachRecord(t, func(t *testing.T, r *record) {
		files := r.files()
		for name, data := range files {
			want, ok := committed[name]
			if !ok {
				t.Errorf("%s: missing from %s (regenerate with go run ./cmd/netdag-figures)", name, recordDir)
				continue
			}
			if line, got, exp := firstDiff(data, want); line > 0 {
				t.Errorf("%s: line %d differs from the committed record:\n got %q\nwant %q", name, line, got, exp)
			}
		}
		for name := range committed {
			if _, ok := files[name]; !ok {
				t.Errorf("%s: in %s but not part of the record", name, recordDir)
			}
		}
	})
}

// firstDiff returns the first line (from 1) at which got and want differ,
// with both versions of it, or 0 when they are equal.
func firstDiff(got, want []byte) (int, string, string) {
	g, w := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return i + 1, gl, wl
		}
	}
	return 0, "", ""
}

func TestFig2Shapes(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		points := r.fig2
		levels := Fig2Levels()
		if len(points) != len(levels)*5 {
			t.Fatalf("fig2 has %d points, want %d", len(points), len(levels)*5)
		}
		// Within each level, makespan is non-decreasing in the number of
		// constrained actuators (the paper's first trend).
		byLevel := make(map[wh.MissConstraint][]Fig2Point)
		for _, p := range points {
			byLevel[p.Level] = append(byLevel[p.Level], p)
		}
		for level, ps := range byLevel {
			for i := 1; i < len(ps); i++ {
				if ps[i].Constrained != ps[i-1].Constrained+1 {
					t.Fatalf("level %v: points out of order", level)
				}
				if ps[i].Makespan < ps[i-1].Makespan {
					t.Errorf("level %v: makespan dropped from %d to %d when constraining actuator %d",
						level, ps[i-1].Makespan, ps[i].Makespan, ps[i].Constrained)
				}
			}
		}
		// Across levels at full constraint coverage, stricter levels cost at
		// least as much (the paper's second trend). Levels are ordered
		// loosest first.
		var fullSpan []int64
		for _, level := range levels {
			for _, p := range byLevel[level] {
				if p.Constrained == 4 {
					fullSpan = append(fullSpan, p.Makespan)
				}
			}
		}
		for i := 1; i < len(fullSpan); i++ {
			if fullSpan[i] < fullSpan[i-1] {
				t.Errorf("stricter level got cheaper: %v", fullSpan)
			}
		}
		// The sweep must not be flat: the strictest full assignment must
		// cost strictly more than the unconstrained baseline.
		base := byLevel[levels[0]][0].Makespan
		strictest := fullSpan[len(fullSpan)-1]
		if strictest <= base {
			t.Errorf("constraints never moved the makespan: base %d, strictest %d", base, strictest)
		}
	})
}

func TestFig3Shapes(t *testing.T) {
	cells := records(t)[1].fig3
	// Index cells by (window, misses).
	grid := make(map[[2]int]float64)
	for _, c := range cells {
		grid[[2]int{c.Window, c.Misses}] = c.MeanSteps
	}
	// Fixed K: performance degrades as m grows (allow small sampling
	// slack; require the ends of each row to be well separated).
	for _, k := range Fig3Windows {
		clean, okC := grid[[2]int{k, 0}]
		worst, okW := grid[[2]int{k, min(Fig3MaxMisses, k-1)}]
		if !okC || !okW {
			t.Fatalf("grid missing ends for window %d", k)
		}
		if worst >= clean {
			t.Errorf("window %d: max faults (%f) not worse than fault-free (%f)", k, worst, clean)
		}
	}
	// Fixed m (use the largest injected budget present in all windows):
	// performance improves as K grows from the smallest to the largest
	// window.
	m := 4
	smallK, bigK := Fig3Windows[0], Fig3Windows[len(Fig3Windows)-1]
	if grid[[2]int{bigK, m}] <= grid[[2]int{smallK, m}] {
		t.Errorf("m=%d: window %d (%f) not better than window %d (%f)",
			m, bigK, grid[[2]int{bigK, m}], smallK, grid[[2]int{smallK, m}])
	}
}

func TestFig4Shapes(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		var points []dse.Point
		for _, f := range r.fig4 {
			points = append(points, f.Point)
		}
		feasible := 0
		var lastLat int64 = -1
		for i, p := range points {
			if i > 0 && p.WorstFSS < points[i-1].WorstFSS-1e-12 {
				t.Errorf("fSS not monotone at Q=%v", p.Q)
			}
			if p.Feasible {
				feasible++
				if lastLat >= 0 && p.Latency > lastLat {
					t.Errorf("latency rose with power at Q=%v", p.Q)
				}
				lastLat = p.Latency
			}
		}
		if feasible < 2 {
			t.Fatalf("only %d feasible power settings; sweep uninformative", feasible)
		}
		// The designer query of EXPERIMENTS E5: the least power that meets
		// a 200 ms deadline.
		best, ok := dse.MinPowerForLatency(points, 200_000)
		if !ok || math.Abs(best.Q-0.2) > 1e-9 {
			t.Errorf("minimum power for a 200 ms deadline = Q %v (found %v), want 0.2", best.Q, ok)
		}
	})
}

func TestValidationAllPass(t *testing.T) {
	check := func(t *testing.T, res *ValidationResult) {
		if len(res.Soft) == 0 || len(res.WH) == 0 {
			t.Fatal("validation produced no reports")
		}
		for _, r := range res.Soft {
			if !r.Pass {
				t.Errorf("soft validation failed for %s: v=%v target=%v", r.Name, r.Statistic, r.Target)
			}
		}
		for _, r := range res.WH {
			if !r.Pass {
				t.Errorf("weakly-hard validation failed for %s: worst %d budget %d",
					r.Name, r.WorstMisses, r.Requirement.Misses)
			}
		}
	}
	forEachRecord(t, func(t *testing.T, r *record) { check(t, r.validation) })
	// A second seed shows the record's passes are not luck.
	res, err := Validation(1, validationRuns, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("seed=3", func(t *testing.T) { check(t, res) })
}

func TestTableI(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		rows := r.tableI
		if len(rows) != 2 {
			t.Fatalf("TableI rows = %d, want 2", len(rows))
		}
		for _, r := range rows {
			if r.Makespan <= 0 || r.BusTime <= 0 {
				t.Errorf("row %s has degenerate schedule: %+v", r.Paradigm, r)
			}
		}
	})
}

func TestTableIBridge(t *testing.T) {
	rows := records(t)[1].bridge
	if len(rows) == 0 {
		t.Fatal("empty bridge")
	}
	prev := 1.0
	for _, r := range rows {
		if r.Probability < 0 || r.Probability > 1 {
			t.Errorf("horizon %d: probability %v out of range", r.Horizon, r.Probability)
		}
		if r.Probability > prev+1e-12 {
			t.Errorf("probability rose with horizon at %d", r.Horizon)
		}
		prev = r.Probability
	}
	// The punchline: over long horizons a soft-0.84 task almost surely
	// violates (6,10) at least once.
	last := rows[len(rows)-1]
	if last.Probability > 0.1 {
		t.Errorf("horizon %d: probability %v still high; bridge shows nothing", last.Horizon, last.Probability)
	}
}

func TestAblationA2NETDAGWins(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		rows := r.a2
		for _, r := range rows {
			if r.NETDAGBus > r.BaselineBus {
				t.Errorf("target %v: NETDAG bus %d worse than baseline %d", r.Target, r.NETDAGBus, r.BaselineBus)
			}
		}
		// At some target the per-flood tuning must strictly win, otherwise
		// the ablation shows nothing.
		won := false
		for _, r := range rows {
			if r.NETDAGBus < r.BaselineBus {
				won = true
			}
		}
		if !won {
			t.Error("per-flood tuning never beat the global baseline across the sweep")
		}
	})
}

func TestAblationA3GreedyWithinBounds(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		for _, r := range r.a3 {
			if r.GreedySpan < r.ExactSpan {
				t.Errorf("%s: greedy %d beat exact %d (exactness bug)", r.Instance, r.GreedySpan, r.ExactSpan)
			}
			if r.ExactSpan > 0 && float64(r.GreedySpan) > 1.5*float64(r.ExactSpan) {
				t.Errorf("%s: greedy %d more than 1.5x exact %d", r.Instance, r.GreedySpan, r.ExactSpan)
			}
		}
	})
}

func TestAblationA4ExactNeverWorse(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		rows := r.a4
		if len(rows) != len(Fig2Levels()) {
			t.Fatalf("rows = %d, want %d", len(rows), len(Fig2Levels()))
		}
		won := false
		for _, r := range rows {
			// The exact optimizer is seeded with the greedy incumbent, so it
			// can never reserve more bus time.
			if r.ExactBus > r.GreedyBus {
				t.Errorf("level %v: exact bus %d worse than greedy %d", r.Level, r.ExactBus, r.GreedyBus)
			}
			if r.ExactBus < r.GreedyBus {
				won = true
			}
		}
		// At some level the exact search must strictly win, otherwise the
		// ablation shows nothing.
		if !won {
			t.Error("exact χ never beat greedy χ across the sweep")
		}
	})
}

// TestAblationA5GuardSweep checks EXPERIMENTS A5's claims on the record's
// seed and on five more: a 100 µs or larger guard never desynchronizes and
// keeps the abstract executor's hit rate, no guard collapses the bus, and
// 25 µs is not enough on every seed.
func TestAblationA5GuardSweep(t *testing.T) {
	check := func(t *testing.T, rows []A5Row) (desync25 float64) {
		if len(rows) != 5 {
			t.Fatalf("rows = %d, want 5", len(rows))
		}
		if rows[0].GuardUS != -1 {
			t.Fatal("first row must be the abstract reference")
		}
		ref := rows[0].HitRate
		if zero := rows[1]; zero.GuardUS != 0 || zero.HitRate != 0 || zero.DesyncRate != 1 {
			t.Errorf("zero guard did not collapse the bus: %+v", zero)
		}
		for i, r := range rows[1:] {
			if r.GuardUS == 25 {
				desync25 = r.DesyncRate
			}
			if r.GuardUS >= 100 && (r.DesyncRate != 0 || r.HitRate < ref-0.1) {
				t.Errorf("guard %v µs: desync %v, hit rate %v against abstract %v", r.GuardUS, r.DesyncRate, r.HitRate, ref)
			}
			// Hit rate is non-decreasing in guard size, up to sampling noise.
			if i > 0 && r.HitRate < rows[i].HitRate-0.05 {
				t.Errorf("hit rate dropped materially from guard %v to %v", rows[i].GuardUS, r.GuardUS)
			}
		}
		return desync25
	}
	forEachRecord(t, func(t *testing.T, r *record) { check(t, r.a5) })
	desynced := 0
	for seed := int64(1); seed <= 5; seed++ {
		rows, err := AblationA5(1, a5Runs, seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if check(t, rows) > 0 {
				desynced++
			}
		})
	}
	if desynced == 0 {
		t.Error("a 25 µs guard never desynchronized; the sweep no longer shows where guards stop sufficing")
	}
}

func TestDiameterSweepMonotone(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		rows := r.diameter
		if len(rows) != 6 {
			t.Fatalf("rows = %d, want 6", len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Makespan < rows[i-1].Makespan {
				t.Errorf("makespan fell when diameter rose to %d", rows[i].Diameter)
			}
			if rows[i].BusTime <= rows[i-1].BusTime {
				t.Errorf("bus time did not grow when diameter rose to %d", rows[i].Diameter)
			}
		}
	})
}

func TestAblationA6TopologyDependence(t *testing.T) {
	forEachRecord(t, func(t *testing.T, r *record) {
		rows := r.a6
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(rows))
		}
		tdmaRow, lwbRow := rows[0], rows[1]
		// Both stacks work on their design topology.
		if tdmaRow.DesignRate < 0.9 || lwbRow.DesignRate < 0.9 {
			t.Errorf("design-topology rates too low: %+v", rows)
		}
		// The mutation must hurt TDMA badly and LWB barely — the paper's §I
		// claim.
		if tdmaRow.MutatedRate > tdmaRow.DesignRate-0.3 {
			t.Errorf("TDMA insufficiently topology-dependent: %v -> %v", tdmaRow.DesignRate, tdmaRow.MutatedRate)
		}
		if lwbRow.MutatedRate < lwbRow.DesignRate-0.1 {
			t.Errorf("LWB should be topology-agnostic: %v -> %v", lwbRow.DesignRate, lwbRow.MutatedRate)
		}
		if lwbRow.MutatedRate <= tdmaRow.MutatedRate {
			t.Errorf("flooding (%v) should beat routing (%v) after the topology change",
				lwbRow.MutatedRate, tdmaRow.MutatedRate)
		}
	})
}

func TestAblationA1SoundAndTight(t *testing.T) {
	rows := records(t)[1].a1
	tight := 0
	for _, r := range rows {
		if r.ExactMisses > r.OplusMisses {
			t.Errorf("⊕ unsound for %v, %v: exact %d > bound %d", r.X, r.Y, r.ExactMisses, r.OplusMisses)
		}
		if r.ExactMisses == r.OplusMisses {
			tight++
		}
	}
	if tight == 0 {
		t.Error("⊕ never tight on the sample grid")
	}
}
