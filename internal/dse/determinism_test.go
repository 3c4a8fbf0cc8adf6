package dse

import (
	"math"
	"reflect"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
)

// smallExploreConfig builds a sweep sized for CI: a 6-task MIMO app,
// three power settings, a short mobility trace. Small enough to run the
// whole worker matrix in seconds, large enough that the
// scheduler has real placement choices to disagree on if determinism
// ever breaks.
func smallExploreConfig(t testing.TB) Config {
	t.Helper()
	g, err := apps.MIMO(apps.MIMOConfig{
		Sensors: 2, Controllers: 2, Actuators: 2,
		SensorWCET: 400, CtrlWCET: 800, ActWCET: 300,
		SensorWidth: 8, CtrlWidth: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := make(map[dag.TaskID]float64)
	for _, a := range apps.Actuators(g) {
		cons[a] = 0.9
	}
	cfg := DefaultConfig(g, cons)
	cfg.MobileNodes = 6
	cfg.Steps = 30
	cfg.Qs = []float64{0.4, 0.7, 1.0}
	return cfg
}

// TestExploreDeterministicAcrossWorkers pins that the DSE sweep is a
// pure function of (Config minus Workers): the parallel outer search
// changes how fast the answer arrives, never which answer.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	base := smallExploreConfig(t)
	ref, err := Explore(base)
	if err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for _, p := range ref {
		if p.Feasible {
			feasible++
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible power setting; the variant comparison would be vacuous")
	}
	cfg := base
	cfg.Workers = 4
	got, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("workers4: %d points, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("workers4: point %d differs:\n got %+v\nwant %+v", i, got[i], ref[i])
		}
	}
}

// TestExploreFrontsMatchesExplore checks the upgrade contract: the
// QFront summaries are exactly Explore's rows, feasible settings carry a
// valid front anchored at the minimal-latency point, and unusable or
// infeasible settings carry none.
func TestExploreFrontsMatchesExplore(t *testing.T) {
	cfg := smallExploreConfig(t)
	points, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fronts, err := ExploreFronts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fronts) != len(points) {
		t.Fatalf("%d fronts for %d points", len(fronts), len(points))
	}
	for i, qf := range fronts {
		if qf.Point != points[i] {
			t.Errorf("summary %d differs from Explore:\n got %+v\nwant %+v", i, qf.Point, points[i])
		}
		if !qf.Point.Feasible {
			if qf.Front != nil {
				t.Errorf("Q=%v infeasible but carries a front", qf.Point.Q)
			}
			continue
		}
		if len(qf.Front) == 0 {
			t.Errorf("Q=%v feasible but front empty", qf.Point.Q)
			continue
		}
		if qf.Front[0].LatencyUS != qf.Point.Latency {
			t.Errorf("Q=%v: front starts at %d µs, summary latency %d µs",
				qf.Point.Q, qf.Front[0].LatencyUS, qf.Point.Latency)
		}
		// Strictly ascending latency and strictly descending energy —
		// the definition of a dominated-point-free front.
		for j := 1; j < len(qf.Front); j++ {
			if qf.Front[j].LatencyUS <= qf.Front[j-1].LatencyUS {
				t.Errorf("Q=%v: front latency not strictly ascending at %d", qf.Point.Q, j)
			}
			if qf.Front[j].EnergyPC >= qf.Front[j-1].EnergyPC {
				t.Errorf("Q=%v: front energy not strictly descending at %d", qf.Point.Q, j)
			}
		}
		for j, fp := range qf.Front {
			if fp.EnergyPC <= 0 {
				t.Errorf("Q=%v point %d: non-positive EnergyPC %d", qf.Point.Q, j, fp.EnergyPC)
			}
			if fp.ChargeUC <= 0 {
				t.Errorf("Q=%v point %d: non-positive ChargeUC %v", qf.Point.Q, j, fp.ChargeUC)
			}
			// Feasible schedules never leave negative constraint margin.
			if fp.Slack < 0 || math.IsNaN(fp.Slack) {
				t.Errorf("Q=%v point %d: invalid slack %v", qf.Point.Q, j, fp.Slack)
			}
		}
	}
}

// TestExploreFrontsDeterministicAcrossWorkers extends the determinism
// pin to the Pareto path: the full per-setting fronts must be identical
// whether the ε-constraint sweep's inner solves run sequentially or
// with four workers.
func TestExploreFrontsDeterministicAcrossWorkers(t *testing.T) {
	base := smallExploreConfig(t)
	ref, err := ExploreFronts(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers = 4
	got, err := ExploreFronts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("workers4: fronts differ from sequential reference")
	}
}
