package dag_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/multirate"
)

// avHeavyGraph is the application of the benchmark's av-heavy anchor
// (core's avHeavyProblem) unrolled at its rates: three camera chains,
// fusion and detection at rate 2, control at rate 10, a visualization
// sink and two telemetry streams. Its enumeration runs at 5 rounds.
func avHeavyGraph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	cams := make([]dag.TaskID, 3)
	for i := range cams {
		cams[i] = g.MustAddTask(fmt.Sprintf("cam%d", i), fmt.Sprintf("ncam%d", i), 450)
	}
	lidar := g.MustAddTask("lidar", "nlidar", 800)
	fuse := g.MustAddTask("fuse", "nfuse", 1100)
	detect := g.MustAddTask("detect", "ndetect", 1500)
	plan := g.MustAddTask("plan", "nplan", 2000)
	ctrl := g.MustAddTask("ctrl", "nctrl", 150)
	monitor := g.MustAddTask("monitor", "nmon", 300)
	for _, c := range cams {
		g.MustConnect(c, fuse, 8)
	}
	g.MustConnect(lidar, fuse, 12)
	g.MustConnect(fuse, detect, 10)
	g.MustConnect(detect, plan, 6)
	g.MustConnect(plan, ctrl, 4)
	g.MustConnect(ctrl, monitor, 2)
	viz := g.MustAddTask("viz", "nviz", 1800)
	g.MustConnect(fuse, viz, 10)
	logger := g.MustAddTask("logger", "nlog", 700)
	for i := 0; i < 2; i++ {
		tele := g.MustAddTask(fmt.Sprintf("tele%d", i), fmt.Sprintf("ntele%d", i), 500)
		g.MustConnect(tele, logger, 6)
	}
	res, err := multirate.Unroll(multirate.Spec{App: g, Rates: map[dag.TaskID]int{
		cams[0]: 2, cams[1]: 2, cams[2]: 2, fuse: 2, detect: 2, ctrl: 10, viz: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

// pipe8Graph is the benchmark's pipe8 anchor: eight independent
// pipelines of two or three tasks on one bus, ten messages in all. Its
// enumeration runs at one round above the minimum, 3.
func pipe8Graph(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New()
	node := 0
	for p, length := range []int{3, 2, 2, 3, 2, 2, 2, 2} {
		prev := dag.TaskID(-1)
		for k := 0; k < length; k++ {
			id := g.MustAddTask(fmt.Sprintf("p%dt%d", p, k), fmt.Sprintf("n%d", node), 100)
			node++
			if prev >= 0 {
				g.MustConnect(prev, id, 8)
			}
			prev = id
		}
	}
	return g
}

// TestEnumerateStepsGate gates the enumerator's work on the benchmark's
// two anchors as a step count, never a timing. Without the height cap the
// walk took 4,684,756 steps to emit av-heavy's 2,500 assignments and
// 23,666 for pipe8's 6,433. CountAssignments must return the same sizes,
// and it takes 333 and 240 steps.
func TestEnumerateStepsGate(t *testing.T) {
	for _, tc := range []struct {
		name          string
		g             *dag.Graph
		maxRounds     int
		assignments   int
		maxSteps      int
		maxCountSteps int
	}{
		{"av-heavy", avHeavyGraph(t), 5, 2500, 14000, 400},
		{"pipe8", pipe8Graph(t), 3, 6433, 16000, 300},
	} {
		lg, err := dag.NewLineGraph(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		lg.EnumerateAssignments(tc.maxRounds, func([]int) bool { n++; return true })
		steps := lg.EnumerateSteps(tc.maxRounds)
		counted, err := lg.CountAssignments(context.Background(), tc.maxRounds)
		if err != nil {
			t.Fatal(err)
		}
		countSteps := lg.CountSteps(tc.maxRounds)
		t.Logf("%s: %d assignments in %d steps, counted in %d", tc.name, n, steps, countSteps)
		if n != tc.assignments || counted != tc.assignments {
			t.Errorf("%s: walk emits %d assignments, count %d; want %d", tc.name, n, counted, tc.assignments)
		}
		if steps > tc.maxSteps {
			t.Errorf("%s: %d enumeration steps, want at most %d", tc.name, steps, tc.maxSteps)
		}
		if countSteps > tc.maxCountSteps {
			t.Errorf("%s: %d counting steps, want at most %d", tc.name, countSteps, tc.maxCountSteps)
		}
	}
}
