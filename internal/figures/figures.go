// Package figures computes the paper record: every table and figure of
// the paper's evaluation (§IV) plus the DESIGN.md ablations.
// WriteRecord writes it as CSV files, cmd/netdag-figures is the one
// command that calls it, the committed copy lives in examples/figures,
// and the package tests check that copy byte for byte. Each experiment function returns
// structured results; record.go owns every file name, column and
// precision, and the constants below own every run count and seed.
//
// Record files (see DESIGN.md §5 and EXPERIMENTS.md):
//
//	E1   table1.csv         Table I: soft vs weakly-hard scheduling of one app
//	E1b  table1_bridge.csv  Table I bridge: P(soft task exhibits (6,10))
//	E2   validation_soft.csv, validation_wh.csv
//	                        §IV-A validation (eq. 11 soft, eq. 12 weakly hard)
//	E3   fig2.csv           Fig. 2: MIMO makespan vs weakly-hard constraints
//	E4   fig3.csv           Fig. 3: cartpole under (m,K) fault injection
//	E5   fig4.csv           Fig. 4: transmission-power design-space exploration
//	E5b  fig4_pareto.csv    Fig. 4 + energy axis: per-setting Pareto fronts
//	E5c  diameter.csv       diameter sensitivity of A_MIMO
//	A1   ablation_a1.csv    ⊕ abstraction precision vs exact conjunction
//	A2   ablation_a2.csv    per-flood χ tuning vs global-N_TX baseline
//	A3   ablation_a3.csv    exact vs greedy placement
//	A4   ablation_a4.csv    exact vs greedy χ optimization
//	A5   ablation_a5.csv    abstract vs clock-accurate bus execution
//	A6   ablation_a6.csv    topology dependence: routed TDMA vs flooded LWB
package figures

import (
	"fmt"
	"math/rand"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/cartpole"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/dse"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
	"github.com/netdag/netdag/internal/sim"
	"github.com/netdag/netdag/internal/tdma"
	"github.com/netdag/netdag/internal/validate"
	"github.com/netdag/netdag/internal/wh"
)

// The record's run counts and seeds: EXPERIMENTS.md quotes the runs they
// produce.
const (
	validationRuns = 10000
	validationSeed = 1
	fig3Episodes   = 100
	fig3Seed       = 1
	a5Runs         = 600
	a5Seed         = 9
	a6Runs         = 2000
	a6Seed         = 5
)

// solve runs core.Solve with the given round-assignment search worker
// count (core.Problem.Workers: 0 = GOMAXPROCS, 1 = sequential), which
// changes no result.
func solve(p *core.Problem, workers int) (*core.Schedule, error) {
	p.Workers = workers
	return core.Solve(p)
}

// mimoProblem builds the A_MIMO weakly-hard problem with the given
// per-actuator constraints (nil entries mean unconstrained).
func mimoProblem(cons map[dag.TaskID]wh.MissConstraint) (*core.Problem, *dag.Graph, error) {
	g, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		return nil, nil, err
	}
	p := &core.Problem{
		App:      g,
		Params:   glossy.DefaultParams(),
		Diameter: 4,
		Mode:     core.WeaklyHard,
		WHStat:   glossy.SyntheticWH{},
		WHCons:   cons,
	}
	return p, g, nil
}

// --- E3: Fig. 2 -------------------------------------------------------

// Fig2Point is one bar of fig. 2: the minimum feasible makespan of
// A_MIMO with the first `Constrained` actuators carrying the weakly-hard
// constraint of the given strictness level.
type Fig2Point struct {
	Level       wh.MissConstraint
	Constrained int
	Makespan    int64
}

// Fig2Levels are the strictness levels swept (tightening miss budgets
// over a fixed window; smaller budget = stricter).
func Fig2Levels() []wh.MissConstraint {
	return []wh.MissConstraint{
		{Misses: 32, Window: 40},
		{Misses: 28, Window: 40},
		{Misses: 24, Window: 40},
		{Misses: 20, Window: 40},
	}
}

// Fig2 computes the fig. 2 sweep: for every strictness level, makespan
// as weakly-hard constraints are incrementally applied to 0..4 actuator
// tasks.
func Fig2(workers int) ([]Fig2Point, error) {
	var out []Fig2Point
	for _, level := range Fig2Levels() {
		g, err := apps.MIMO(apps.DefaultMIMO())
		if err != nil {
			return nil, err
		}
		acts := apps.Actuators(g)
		for k := 0; k <= len(acts); k++ {
			cons := make(map[dag.TaskID]wh.MissConstraint)
			for _, a := range acts[:k] {
				cons[a] = level
			}
			p, _, err := mimoProblem(cons)
			if err != nil {
				return nil, err
			}
			p.Workers = workers
			m, err := core.MinMakespan(p)
			if err != nil {
				return nil, fmt.Errorf("figures: fig2 level %v, %d actuators: %w", level, k, err)
			}
			out = append(out, Fig2Point{Level: level, Constrained: k, Makespan: m})
		}
	}
	return out, nil
}

// --- E4: Fig. 3 -------------------------------------------------------

// Fig3Windows and Fig3MaxMisses define the (m, K) grid of fig. 3.
var Fig3Windows = []int{5, 10, 15, 20}

// Fig3MaxMisses is the largest miss budget per window injected.
const Fig3MaxMisses = 6

// Fig3 trains (or reuses) the NN controller and measures mean balanced
// steps per grid cell. It runs no scheduler.
func Fig3() ([]cartpole.Cell, error) {
	ctl, err := cartpole.TrainedController()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(fig3Seed))
	return cartpole.FaultGrid(ctl, cartpole.DefaultParams(), Fig3Windows, Fig3MaxMisses, fig3Episodes, rng)
}

// --- E5, E5b: Fig. 4 and its energy fronts ---------------------------

// Fig4Pareto runs the §IV-D exploration on A_MIMO with 0.9 soft targets
// on all actuators, with the Pareto objective: every front's Point is a
// fig. 4 row (dse.ExploreFronts' summaries equal dse.Explore's points),
// and every feasible power setting carries its full energy/latency front,
// the fig. 4 rows extended with the energy axis (DESIGN.md §15).
func Fig4Pareto(workers int) ([]dse.QFront, error) {
	g, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		return nil, err
	}
	cons := make(map[dag.TaskID]float64)
	for _, a := range apps.Actuators(g) {
		cons[a] = 0.9
	}
	cfg := dse.DefaultConfig(g, cons)
	cfg.MobileNodes = 13 // one mobile node per task
	cfg.Workers = workers
	return dse.ExploreFronts(cfg)
}

// --- E5c: diameter sensitivity ------------------------------------------

// DiameterRow is one point of the network-density sensitivity sweep: the
// diameter bound D(N) enters every flood reservation linearly (eq. 3),
// so sparser networks pay for every slot.
type DiameterRow struct {
	Diameter int
	Makespan int64
	BusTime  int64
}

// DiameterSweep schedules A_MIMO under a fixed weakly-hard load across
// diameter bounds — the connectivity half of the fig. 4 tradeoff
// isolated from the statistic.
func DiameterSweep(workers int) ([]DiameterRow, error) {
	var out []DiameterRow
	for d := 1; d <= 6; d++ {
		g, err := apps.MIMO(apps.DefaultMIMO())
		if err != nil {
			return nil, err
		}
		cons := make(map[dag.TaskID]wh.MissConstraint)
		for _, a := range apps.Actuators(g) {
			cons[a] = wh.MissConstraint{Misses: 24, Window: 40}
		}
		p := &core.Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: d,
			Mode: core.WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
			GreedyChi: true,
		}
		s, err := solve(p, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, DiameterRow{Diameter: d, Makespan: s.Makespan, BusTime: s.BusTime})
	}
	return out, nil
}

// --- E2: §IV-A validation ---------------------------------------------

// ValidationResult bundles the §IV-A reports for a soft pipeline and the
// weakly-hard A_MIMO.
type ValidationResult struct {
	Soft []validate.SoftReport
	WH   []validate.WHReport
}

// Validation schedules a 3-stage soft pipeline (targets 0.95/0.9) and
// the weakly-hard A_MIMO (budget 20 misses per 40 on each actuator), then
// validates both per eq. (11) and eq. (12).
func Validation(workers, runs int, seed int64) (*ValidationResult, error) {
	rng := rand.New(rand.NewSource(seed))
	res := &ValidationResult{}

	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		return nil, err
	}
	mid, _ := g.TaskByName("stage1")
	last, _ := g.TaskByName("stage2")
	soft := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{mid.ID: 0.95, last.ID: 0.9},
	}
	ss, err := solve(soft, workers)
	if err != nil {
		return nil, err
	}
	res.Soft, err = validate.SoftAll(soft, ss, runs, rng)
	if err != nil {
		return nil, err
	}

	cons := make(map[dag.TaskID]wh.MissConstraint)
	gm, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		return nil, err
	}
	for _, a := range apps.Actuators(gm) {
		cons[a] = wh.MissConstraint{Misses: 20, Window: 40}
	}
	whp, _, err := mimoProblem(cons)
	if err != nil {
		return nil, err
	}
	ws, err := solve(whp, workers)
	if err != nil {
		return nil, err
	}
	res.WH, err = validate.WHAll(whp, ws, runs, rng)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// --- E1: Table I ------------------------------------------------------

// TableIRow is one paradigm's scheduling outcome for the same pipeline.
type TableIRow struct {
	Paradigm  string
	Guarantee string
	Makespan  int64
	BusTime   int64
}

// TableI schedules the same sense→act pipeline under the Table I example
// constraints — soft "succeeds 84% of the time" vs weakly hard "at least
// 6 in every 10" — and reports both outcomes. (A two-stage app keeps the
// (6,10) budget reachable under the eq. 13 statistic, whose floods
// contribute at least 2 misses each: one message plus one beacon exactly
// saturates the 4-miss budget.)
func TableI(workers int) ([]TableIRow, error) {
	g, err := apps.Pipeline(2, 500, 8)
	if err != nil {
		return nil, err
	}
	last, _ := g.TaskByName("stage1")

	soft := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{last.ID: 0.84},
	}
	ss, err := solve(soft, workers)
	if err != nil {
		return nil, err
	}

	g2, err := apps.Pipeline(2, 500, 8)
	if err != nil {
		return nil, err
	}
	last2, _ := g2.TaskByName("stage1")
	hard := &core.Problem{
		App: g2, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:   core.WeaklyHard,
		WHStat: glossy.SyntheticWH{},
		// Table I: "at least 6 times in every 10" = hit-form (6,10).
		WHCons: map[dag.TaskID]wh.MissConstraint{last2.ID: (wh.Constraint{M: 6, K: 10}).Miss()},
	}
	ws, err := solve(hard, workers)
	if err != nil {
		return nil, err
	}
	return []TableIRow{
		{Paradigm: "soft", Guarantee: "P(success) >= 0.84", Makespan: ss.Makespan, BusTime: ss.BusTime},
		{Paradigm: "weakly hard", Guarantee: "(6,10): >= 6 hits per 10 runs", Makespan: ws.Makespan, BusTime: ws.BusTime},
	}, nil
}

// BridgeRow quantifies the Table I comparison: the probability that a
// task meeting the soft example target (84% i.i.d. success) also
// exhibits the weakly-hard example behaviour ((6,10): at least 6 hits
// per 10 consecutive runs) over a given horizon.
type BridgeRow struct {
	Horizon     int
	Probability float64
}

// TableIBridge computes the soft→weakly-hard bridge with the exact
// automaton DP (wh.SatisfactionProbability): soft guarantees erode over
// long horizons — precisely why the paper argues safety-critical
// applications need weakly-hard constraints enforced by construction
// rather than implied probabilistically.
func TableIBridge() []BridgeRow {
	c := wh.Constraint{M: 6, K: 10} // Table I's weakly-hard example
	const p = 0.84                  // Table I's soft example
	var out []BridgeRow
	for _, n := range []int{10, 50, 100, 500, 1000, 5000} {
		out = append(out, BridgeRow{Horizon: n, Probability: wh.SatisfactionProbability(c, p, n)})
	}
	return out
}

// --- A2: per-flood vs global N_TX --------------------------------------

// A2Row compares NETDAG against the global-N_TX baseline at one
// reliability target.
type A2Row struct {
	Target       float64
	NETDAGBus    int64
	BaselineBus  int64
	NETDAGSpan   int64
	BaselineSpan int64
}

// AblationA2 sweeps soft targets on the A_MIMO actuators and compares bus
// time and makespan against the baseline.
func AblationA2(workers int) ([]A2Row, error) {
	var out []A2Row
	for _, target := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
		g, err := apps.MIMO(apps.DefaultMIMO())
		if err != nil {
			return nil, err
		}
		cons := make(map[dag.TaskID]float64)
		for _, a := range apps.Actuators(g) {
			cons[a] = target
		}
		p := &core.Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 4,
			Mode:     core.Soft,
			SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
			SoftCons: cons,
		}
		nd, err := solve(p, workers)
		if err != nil {
			return nil, err
		}
		base, err := core.GlobalNTXBaseline(p)
		if err != nil {
			return nil, err
		}
		out = append(out, A2Row{
			Target:       target,
			NETDAGBus:    nd.BusTime,
			BaselineBus:  base.BusTime,
			NETDAGSpan:   nd.Makespan,
			BaselineSpan: base.Makespan,
		})
	}
	return out, nil
}

// --- A3: exact vs greedy placement -------------------------------------

// A3Row compares the exact and greedy timing searches on one instance.
type A3Row struct {
	Instance   string
	ExactSpan  int64
	GreedySpan int64
}

// AblationA3 runs both placement strategies on the paper's instances and
// random layered DAGs.
func AblationA3(workers int) ([]A3Row, error) {
	var out []A3Row
	run := func(name string, mk func() (*core.Problem, error)) error {
		pe, err := mk()
		if err != nil {
			return err
		}
		se, err := solve(pe, workers)
		if err != nil {
			return err
		}
		pg, err := mk()
		if err != nil {
			return err
		}
		pg.GreedyPlacement = true
		sg, err := solve(pg, workers)
		if err != nil {
			return err
		}
		out = append(out, A3Row{Instance: name, ExactSpan: se.Makespan, GreedySpan: sg.Makespan})
		return nil
	}
	if err := run("mimo", func() (*core.Problem, error) {
		cons := make(map[dag.TaskID]wh.MissConstraint)
		g, err := apps.MIMO(apps.DefaultMIMO())
		if err != nil {
			return nil, err
		}
		for _, a := range apps.Actuators(g) {
			cons[a] = wh.MissConstraint{Misses: 24, Window: 40}
		}
		p, _, err := mimoProblem(cons)
		return p, err
	}); err != nil {
		return nil, err
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := seed
		if err := run(fmt.Sprintf("layered-%d", s), func() (*core.Problem, error) {
			g, err := apps.RandomLayered(3, 3, 2, s)
			if err != nil {
				return nil, err
			}
			return &core.Problem{
				App: g, Params: glossy.DefaultParams(), Diameter: 3,
				Mode:      core.Soft,
				SoftStat:  glossy.BernoulliSoft{PerTX: 0.9},
				SoftCons:  map[dag.TaskID]float64{g.Sinks()[0]: 0.9},
				GreedyChi: true,
			}, nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- A4: exact vs greedy χ optimization ---------------------------------

// A4Row compares the exact (branch-and-bound) and greedy χ optimizers on
// one instance: the quality axis complementing A3's placement
// comparison.
type A4Row struct {
	Level     wh.MissConstraint
	ExactBus  int64
	GreedyBus int64
}

// AblationA4 sweeps fig. 2 strictness levels on the fully-constrained
// A_MIMO and reports the reserved bus time under both χ optimizers.
func AblationA4(workers int) ([]A4Row, error) {
	var out []A4Row
	for _, level := range Fig2Levels() {
		run := func(greedy bool) (int64, error) {
			g, err := apps.MIMO(apps.DefaultMIMO())
			if err != nil {
				return 0, err
			}
			cons := make(map[dag.TaskID]wh.MissConstraint)
			for _, a := range apps.Actuators(g) {
				cons[a] = level
			}
			p, _, err := mimoProblem(cons)
			if err != nil {
				return 0, err
			}
			p.GreedyChi = greedy
			s, err := solve(p, workers)
			if err != nil {
				return 0, err
			}
			return s.BusTime, nil
		}
		exact, err := run(false)
		if err != nil {
			return nil, err
		}
		greedy, err := run(true)
		if err != nil {
			return nil, err
		}
		out = append(out, A4Row{Level: level, ExactBus: exact, GreedyBus: greedy})
	}
	return out, nil
}

// --- A5: abstract vs clock-accurate bus execution -----------------------

// A5Row reports the deployed end-task hit rate under one guard-time
// provision, against the abstract (clock-free) executor's reference.
type A5Row struct {
	GuardUS    float64 // -1 marks the abstract executor reference row
	HitRate    float64
	BeaconRate float64
	DesyncRate float64
}

// AblationA5 deploys a scheduled pipeline on a lossy line and sweeps the
// guard-time provisioning of the clock-accurate simulator, quantifying
// when the paper's clock-free scheduling abstraction is faithful (ample
// guards) and when it breaks (guards below the drift accumulated between
// beacon captures).
func AblationA5(workers, runs int, seed int64) ([]A5Row, error) {
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		return nil, err
	}
	last, _ := g.TaskByName("stage2")
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{last.ID: 0.85},
	}
	s, err := solve(p, workers)
	if err != nil {
		return nil, err
	}
	topo := network.Line(3, 0.9)
	d, err := lwb.NewDeployment(g, s, topo, p.Params)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []A5Row
	// Reference: the abstract executor.
	seqs, err := d.Run(runs, rng)
	if err != nil {
		return nil, err
	}
	out = append(out, A5Row{GuardUS: -1, HitRate: seqs[last.ID].HitRate(), BeaconRate: 1})
	period := s.Makespan + 500_000
	for _, guard := range []float64{0, 25, 100, 500} {
		r, err := sim.NewRunner(d, sim.ClockConfig{DriftPPM: 60, SyncJitterUS: 2, GuardUS: guard}, period)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(runs, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, A5Row{
			GuardUS:    guard,
			HitRate:    res.TaskSeqs[last.ID].HitRate(),
			BeaconRate: res.BeaconCaptureRate,
			DesyncRate: res.DesyncRate,
		})
	}
	return out, nil
}

// --- A6: topology dependence — flooding (LWB) vs routing (TDMA) ---------

// A6Row compares end-to-end delivery of the same application under the
// two communication stacks, on the topology each schedule was designed
// for and on a mutated topology (one link degraded, one new link).
type A6Row struct {
	Stack       string
	DesignRate  float64
	MutatedRate float64
}

// AblationA6 reproduces the paper's motivational claim from §I: TDMA
// schedules are bound to the topology they were computed on, while
// Glossy-flood-based schedules are topology-agnostic.
func AblationA6(workers int) ([]A6Row, error) {
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		return nil, err
	}
	design := network.Line(3, 0.9)
	mutated := network.NewTopology(3)
	if err := mutated.AddLink(0, 1, 0.9); err != nil {
		return nil, err
	}
	if err := mutated.AddLink(1, 2, 0.05); err != nil { // node walked away
		return nil, err
	}
	if err := mutated.AddLink(0, 2, 0.9); err != nil { // ...toward n0
		return nil, err
	}
	rng := rand.New(rand.NewSource(a6Seed))

	// TDMA stack.
	tdmaSched, err := tdma.Build(g, design, tdma.DefaultParams())
	if err != nil {
		return nil, err
	}
	tdmaDesign, err := tdmaSched.DeliveryRate(design, a6Runs, rng)
	if err != nil {
		return nil, err
	}
	tdmaMutated, err := tdmaSched.DeliveryRate(mutated, a6Runs, rng)
	if err != nil {
		return nil, err
	}

	// LWB/NETDAG stack: schedule once, deploy on both topologies; the
	// end task's hit rate is the comparable end-to-end statistic.
	last, _ := g.TaskByName("stage2")
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{last.ID: 0.95},
	}
	s, err := solve(p, workers)
	if err != nil {
		return nil, err
	}
	lwbRate := func(topo *network.Topology) (float64, error) {
		d, err := lwb.NewDeployment(g, s, topo, p.Params)
		if err != nil {
			return 0, err
		}
		seqs, err := d.Run(a6Runs, rng)
		if err != nil {
			return 0, err
		}
		return seqs[last.ID].HitRate(), nil
	}
	lwbDesign, err := lwbRate(design)
	if err != nil {
		return nil, err
	}
	lwbMutated, err := lwbRate(mutated)
	if err != nil {
		return nil, err
	}
	return []A6Row{
		{Stack: "TDMA (routed)", DesignRate: tdmaDesign, MutatedRate: tdmaMutated},
		{Stack: "LWB (flooded)", DesignRate: lwbDesign, MutatedRate: lwbMutated},
	}, nil
}

// --- A1: ⊕ precision ----------------------------------------------------

// A1Row measures the ⊕ abstraction against the exact worst case for one
// constraint pair.
type A1Row struct {
	X, Y        wh.MissConstraint
	OplusMisses int
	ExactMisses int
}

// AblationA1 compares ⊕ against exact worst-case conjunction analysis on
// a grid of small constraint pairs.
func AblationA1() []A1Row {
	var out []A1Row
	pairs := [][2]wh.MissConstraint{
		{{Misses: 1, Window: 5}, {Misses: 1, Window: 5}},
		{{Misses: 2, Window: 6}, {Misses: 1, Window: 6}},
		{{Misses: 1, Window: 4}, {Misses: 2, Window: 8}},
		{{Misses: 2, Window: 5}, {Misses: 2, Window: 9}},
		{{Misses: 3, Window: 7}, {Misses: 1, Window: 5}},
		{{Misses: 2, Window: 8}, {Misses: 2, Window: 4}},
	}
	for _, pr := range pairs {
		z := wh.Oplus(pr[0], pr[1])
		exact := wh.MaxConjMisses(pr[0], pr[1], z.Window)
		out = append(out, A1Row{X: pr[0], Y: pr[1], OplusMisses: z.Misses, ExactMisses: exact})
	}
	return out
}
