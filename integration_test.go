package netdag

// End-to-end integration tests: the full NETDAG pipeline from a JSON
// problem spec through scheduling, export, bus deployment over a lossy
// topology, and statistical validation — the path a real user walks.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/multirate"
	"github.com/netdag/netdag/internal/network"
	"github.com/netdag/netdag/internal/spec"
	"github.com/netdag/netdag/internal/validate"
	"github.com/netdag/netdag/internal/wh"
)

const pipelineSpec = `{
  "mode": "soft",
  "diameter": 2,
  "tasks": [
    {"name": "sense", "node": "n0", "wcet": 500},
    {"name": "ctrl",  "node": "n1", "wcet": 2000},
    {"name": "act",   "node": "n2", "wcet": 300}
  ],
  "edges": [
    {"from": "sense", "to": "ctrl", "width": 8},
    {"from": "ctrl",  "to": "act",  "width": 4}
  ],
  "softStatistic": {"type": "bernoulli", "perTX": 0.85},
  "softConstraints": {"act": 0.9}
}`

// TestSpecToDeploymentPipeline walks spec -> solve -> audit -> export ->
// deploy -> empirical check.
func TestSpecToDeploymentPipeline(t *testing.T) {
	p, err := spec.Load(strings.NewReader(pipelineSpec))
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(p.App); err != nil {
		t.Fatalf("schedule audit: %v", err)
	}
	// Export must produce parseable JSON with consistent totals.
	var buf bytes.Buffer
	if err := spec.WriteJSON(&buf, p, s); err != nil {
		t.Fatal(err)
	}
	var out spec.ScheduleOut
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var slotSum int64
	for _, r := range out.Rounds {
		slotSum += r.DurationUS
	}
	if slotSum != out.BusTimeUS {
		t.Errorf("exported round durations %d != bus time %d", slotSum, out.BusTimeUS)
	}
	// Deploy over a 3-node line whose links match the statistic's
	// per-transmission success.
	topo := network.Line(3, 0.85)
	d, err := lwb.NewDeployment(p.App, s, topo, p.Params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	seqs, err := d.Run(4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	act, _ := p.App.TaskByName("act")
	rate := seqs[act.ID].HitRate()
	if rate < 0.7 {
		t.Errorf("deployed end-to-end hit rate %v far below the 0.9 design target", rate)
	}
	// Statistical validation (model-level) must pass.
	rep, err := validate.SoftTask(p, s, act.ID, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Errorf("model-level validation failed: %+v", rep)
	}
}

// TestWeaklyHardEndToEnd schedules A_MIMO under weakly-hard constraints,
// validates adversarially, deploys over a lossy grid, and monitors each
// actuator's empirical trace with the paper's requirement via the online
// monitor.
func TestWeaklyHardEndToEnd(t *testing.T) {
	g, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		t.Fatal(err)
	}
	req := wh.MissConstraint{Misses: 20, Window: 40}
	cons := make(map[dag.TaskID]wh.MissConstraint)
	for _, a := range apps.Actuators(g) {
		cons[a] = req
	}
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 4,
		Mode: core.WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
	}
	s, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	reports, err := validate.WHAll(p, s, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Pass {
			t.Fatalf("adversarial validation failed for %s", r.Name)
		}
	}
	// Deploy on a 16-node grid with strong links: the empirical miss
	// process is then much tamer than the adversarial bound, so the
	// online monitor must stay green.
	topo := network.Grid(4, 4, 0.95)
	d, err := lwb.NewDeployment(g, s, topo, p.Params)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := d.Run(2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps.Actuators(g) {
		mon, err := wh.NewMissMonitor(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := mon.PushSeq(seqs[a]); v != 0 {
			t.Errorf("actuator %d violated %v on the deployed bus (%d windows; hit rate %v)",
				a, req, v, seqs[a].HitRate())
		}
	}
}

// TestMultirateEndToEnd unrolls, schedules and audits a multi-rate app.
func TestMultirateEndToEnd(t *testing.T) {
	base := dag.New()
	sense := base.MustAddTask("sense", "n0", 400)
	ctrl := base.MustAddTask("ctrl", "n1", 1200)
	act := base.MustAddTask("act", "n2", 200)
	base.MustConnect(sense, ctrl, 8)
	base.MustConnect(ctrl, act, 4)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := multirate.Unroll(multirate.Spec{
		App:   base,
		Rates: map[dag.TaskID]int{ctrl: 2, act: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := multirate.SpreadConstraints(res, map[dag.TaskID]wh.MissConstraint{
		act: {Misses: 12, Window: 40},
	})
	p := &core.Problem{
		App: res.Graph, Params: glossy.DefaultParams(), Diameter: 3,
		Mode: core.WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
	}
	s, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(res.Graph); err != nil {
		t.Fatalf("multirate schedule audit: %v", err)
	}
	// Both actuation instances carry their guarantee.
	for inst, c := range cons {
		guar, ok, err := core.SatisfiedWH(p, s, inst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !wh.SufficientlyImpliesMiss(guar, c) {
			t.Errorf("instance %d guarantee %v (ok=%v) misses %v", inst, guar, ok, c)
		}
	}
	// Energy accounting holds together end to end.
	rep, err := lwb.DefaultEnergyModel().Evaluate(s, p.Params, p.Diameter)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TXTimeUS+rep.RXTimeUS != s.BusTime {
		t.Errorf("energy radio-on %d != bus %d", rep.TXTimeUS+rep.RXTimeUS, s.BusTime)
	}
}

// TestMergedApplicationsShareTheBus schedules two independent
// applications as one merged graph: both applications' constraints hold
// and their messages share rounds where the line graph allows.
func TestMergedApplicationsShareTheBus(t *testing.T) {
	ctl, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	monApp := dag.New()
	m0 := monApp.MustAddTask("probe", "m0", 200)
	m1 := monApp.MustAddTask("collect", "m1", 400)
	monApp.MustConnect(m0, m1, 16)
	if err := monApp.Validate(); err != nil {
		t.Fatal(err)
	}
	merged, trans, err := dag.Merge(map[string]*dag.Graph{"ctl": ctl, "mon": monApp})
	if err != nil {
		t.Fatal(err)
	}
	ctlSink, _ := ctl.TaskByName("stage2")
	p := &core.Problem{
		App: merged, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{
			trans["ctl"][ctlSink.ID]: 0.9,
			trans["mon"][m1]:         0.7,
		},
	}
	s, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(merged); err != nil {
		t.Fatalf("merged schedule audit: %v", err)
	}
	// Both apps' guarantees hold.
	if got, err := core.SatisfiedSoft(p, s, trans["ctl"][ctlSink.ID]); err != nil || got < 0.9 {
		t.Errorf("control app guarantee %v < 0.9 (err %v)", got, err)
	}
	if got, err := core.SatisfiedSoft(p, s, trans["mon"][m1]); err != nil || got < 0.7 {
		t.Errorf("monitoring app guarantee %v < 0.7 (err %v)", got, err)
	}
	// Sharing pays: the merged schedule beats running the two apps
	// back-to-back (which would serialize all rounds and tasks).
	soloCtl, err := core.Solve(&core.Problem{
		App: ctl, Params: glossy.DefaultParams(), Diameter: 3,
		Mode: core.Soft, SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{ctlSink.ID: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	soloMon, err := core.Solve(&core.Problem{
		App: monApp, Params: glossy.DefaultParams(), Diameter: 3,
		Mode: core.Soft, SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{m1: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan >= soloCtl.Makespan+soloMon.Makespan {
		t.Errorf("merged makespan %d not better than serialized %d+%d",
			s.Makespan, soloCtl.Makespan, soloMon.Makespan)
	}
}

// TestBaselineComparisonEndToEnd confirms the headline A2 property on a
// fresh instance: per-flood tuning never reserves more bus time than the
// global baseline, and both validate.
func TestBaselineComparisonEndToEnd(t *testing.T) {
	g, err := apps.Switched(apps.DefaultSwitched())
	if err != nil {
		t.Fatal(err)
	}
	act, _ := g.TaskByName("act0")
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{act.ID: 0.93},
	}
	nd, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.GlobalNTXBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if nd.BusTime > base.BusTime {
		t.Errorf("NETDAG bus %d worse than baseline %d", nd.BusTime, base.BusTime)
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range []*core.Schedule{nd, base} {
		rep, err := validate.SoftTask(p, s, act.ID, 10000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Errorf("schedule failed validation: %+v", rep)
		}
	}
}

// TestCorpusChiExact pins where the χ search's node budget still
// truncates: of the 190 solved corpus scenarios only 095 gets a χ vector
// that is not proven minimal, and the schedule says so through ChiExact.
// Lifting the budget would lower 095's pinned makespan, so the day that
// happens this test moves with the corpus pins.
func TestCorpusChiExact(t *testing.T) {
	paths, err := filepath.Glob("examples/corpus/scenario-*.json")
	if err != nil {
		t.Fatal(err)
	}
	solved := 0
	var inexact []string
	for _, path := range paths {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Load(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		s, err := core.Solve(p)
		if errors.Is(err, core.ErrUnsat) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		solved++
		if !s.ChiExact {
			inexact = append(inexact, filepath.Base(path))
		}
	}
	if solved != 190 || len(inexact) != 1 || inexact[0] != "scenario-095.json" {
		t.Errorf("%d solved, χ not exact on %v; want 190 solved and only scenario-095.json", solved, inexact)
	}
}
