package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/spec"
)

// pipe8Spec is the 8-pipeline weakly-hard application of the serving
// benchmark that BENCH_PR8.json recorded: eight independent pipelines on
// one bus, so the round-assignment search enumerates 6,433 assignments
// while the placement search needs only 3 nodes. It anchors the hard tier
// and is the base of the serve and session workloads.
const pipe8Spec = `{
  "mode": "weakly-hard",
  "diameter": 3,
  "tasks": [
    {"name": "p0t0", "node": "n0", "wcet": 847},
    {"name": "p0t1", "node": "n1", "wcet": 4081},
    {"name": "p0t2", "node": "n2", "wcet": 225},
    {"name": "p1t0", "node": "n3", "wcet": 300},
    {"name": "p1t1", "node": "n4", "wcet": 494},
    {"name": "p2t0", "node": "n5", "wcet": 889},
    {"name": "p2t1", "node": "n6", "wcet": 928},
    {"name": "p3t0", "node": "n7", "wcet": 445},
    {"name": "p3t1", "node": "n8", "wcet": 21106},
    {"name": "p3t2", "node": "n9", "wcet": 866},
    {"name": "p4t0", "node": "n10", "wcet": 647},
    {"name": "p4t1", "node": "n11", "wcet": 947},
    {"name": "p5t0", "node": "n12", "wcet": 990},
    {"name": "p5t1", "node": "n13", "wcet": 415},
    {"name": "p6t0", "node": "n14", "wcet": 387},
    {"name": "p6t1", "node": "n15", "wcet": 631},
    {"name": "p7t0", "node": "n16", "wcet": 337},
    {"name": "p7t1", "node": "n17", "wcet": 831}
  ],
  "edges": [
    {"from": "p0t0", "to": "p0t1", "width": 7},
    {"from": "p0t1", "to": "p0t2", "width": 9},
    {"from": "p1t0", "to": "p1t1", "width": 8},
    {"from": "p2t0", "to": "p2t1", "width": 3},
    {"from": "p3t0", "to": "p3t1", "width": 12},
    {"from": "p3t1", "to": "p3t2", "width": 9},
    {"from": "p4t0", "to": "p4t1", "width": 8},
    {"from": "p5t0", "to": "p5t1", "width": 2},
    {"from": "p6t0", "to": "p6t1", "width": 10},
    {"from": "p7t0", "to": "p7t1", "width": 10}
  ],
  "whStatistic": {"type": "synthetic"},
  "whConstraints": {
    "p0t2": {"misses": 25, "window": 40}, "p1t1": {"misses": 25, "window": 40},
    "p2t1": {"misses": 25, "window": 40}, "p3t2": {"misses": 25, "window": 40},
    "p4t1": {"misses": 25, "window": 40}, "p5t1": {"misses": 25, "window": 40},
    "p6t1": {"misses": 25, "window": 40}, "p7t1": {"misses": 25, "window": 40}
  }
}`

// pipe8 decodes pipe8Spec.
func pipe8() *spec.File {
	f, err := spec.Decode(strings.NewReader(pipe8Spec))
	if err != nil {
		panic(err) // a constant of this file
	}
	return f
}

// avHeavy is the core package's BenchmarkMultiRateAVHeavy instance
// written as a spec: three identical cameras, fusion and detection at
// rate 2, control at rate 10, a visualization sink and two identical
// telemetry streams, with MaxRounds pinned to the line graph's minimum.
// The solve explores 2,500 assignments and spends 301 branch-and-bound
// nodes on placement, the heaviest placement load of the hard tier.
func avHeavy() *spec.File {
	f := &spec.File{
		Mode: "weakly-hard", Diameter: 3, MaxNTX: 10, MaxRounds: 5,
		WHStatistic: &spec.StatSpec{Type: "synthetic"},
		Rates: map[string]int{
			"cam0": 2, "cam1": 2, "cam2": 2, "fuse": 2, "detect": 2, "ctrl": 10, "viz": 2,
		},
		WHConstraints: map[string]spec.WHSpec{
			"ctrl":    {Misses: 24, Window: 40},
			"monitor": {Misses: 28, Window: 40},
		},
	}
	task := func(name, node string, wcet int64) {
		f.Tasks = append(f.Tasks, spec.TaskSpec{Name: name, Node: node, WCET: wcet})
	}
	edge := func(from, to string, width int) {
		f.Edges = append(f.Edges, spec.EdgeSpec{From: from, To: to, Width: width})
	}
	for i := 0; i < 3; i++ {
		task(fmt.Sprintf("cam%d", i), fmt.Sprintf("ncam%d", i), 450)
	}
	task("lidar", "nlidar", 800)
	task("fuse", "nfuse", 1100)
	task("detect", "ndetect", 1500)
	task("plan", "nplan", 2000)
	task("ctrl", "nctrl", 150)
	task("monitor", "nmon", 300)
	for i := 0; i < 3; i++ {
		edge(fmt.Sprintf("cam%d", i), "fuse", 8)
	}
	edge("lidar", "fuse", 12)
	edge("fuse", "detect", 10)
	edge("detect", "plan", 6)
	edge("plan", "ctrl", 4)
	edge("ctrl", "monitor", 2)
	task("viz", "nviz", 1800)
	edge("fuse", "viz", 10)
	task("logger", "nlog", 700)
	for i := 0; i < 2; i++ {
		task(fmt.Sprintf("tele%d", i), fmt.Sprintf("ntele%d", i), 500)
		edge(fmt.Sprintf("tele%d", i), "logger", 6)
	}
	return f
}

// mutateWeights returns a structural twin of f: every WCET and message
// width scaled by a factor drawn from [0.5, 1.5), the weight mutation
// netdag-loadgen applies. The DAG shape, rates and constraints are kept,
// so spec.StructuralFingerprint is unchanged and serve's warm-start index
// applies to the twin.
func mutateWeights(f *spec.File, rng *rand.Rand) *spec.File {
	v := *f
	v.Tasks = make([]spec.TaskSpec, len(f.Tasks))
	for i, t := range f.Tasks {
		t.WCET = 1 + t.WCET*int64(50+rng.Intn(100))/100
		v.Tasks[i] = t
	}
	v.Edges = make([]spec.EdgeSpec, len(f.Edges))
	for i, e := range f.Edges {
		e.Width = 1 + e.Width*(50+rng.Intn(100))/100
		v.Edges[i] = e
	}
	return &v
}

// marshalSpec renders a spec as compact JSON (maps in sorted key order,
// so the bytes are a pure function of the spec).
func marshalSpec(f *spec.File) []byte {
	b, err := json.Marshal(f)
	if err != nil {
		panic(err) // plain data: marshaling cannot fail
	}
	return b
}

// maxRounds is Solve's round-count rule: the spec's MaxRounds, else the
// line graph's minimum plus core.DefaultExtraRounds.
func maxRounds(p *core.Problem, lg *dag.LineGraph) int {
	if p.MaxRounds > 0 {
		return p.MaxRounds
	}
	return lg.MinRounds() + core.DefaultExtraRounds
}

// enumerate builds the line graph of a problem's application and walks
// every admissible round assignment with a no-op visitor, returning the
// count: the outer search's enumeration work without any of its pruning.
func enumerate(p *core.Problem) (int, error) {
	lg, err := dag.NewLineGraph(p.App)
	if err != nil {
		return 0, err
	}
	n := 0
	lg.EnumerateAssignments(maxRounds(p, lg), func([]int) bool { n++; return true })
	return n, nil
}
