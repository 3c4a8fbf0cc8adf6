// Package core implements NETDAG, the application-aware time-triggered
// scheduler for networked applications over the Low-Power Wireless Bus
// (Wardega & Li, DATE 2020).
//
// Given an application task-dependency graph with WCETs, placements and
// message widths (internal/dag), the Glossy timing model and a network
// statistic (internal/glossy), and task-level real-time constraints —
// soft success probabilities or weakly-hard (m,K) bounds — the scheduler
// produces a makespan-minimal feasible schedule (ζ, χ, l):
//
//   - l assigns every unique-source message to an LWB communication
//     round (a topological partial order of the application line graph,
//     paper eq. 2),
//   - χ picks the Glossy retransmission parameter N_TX for every message
//     slot and round beacon so the task-level constraints hold (paper
//     eq. 6 for soft, eq. 9/10 via the ⊕ abstraction for weakly hard),
//   - ζ places tasks and rounds in time so precedence holds and no task
//     overlaps any communication round (paper eq. 4, 5), minimized for
//     makespan by the branch-and-bound solver in internal/solver.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// Mode selects the real-time paradigm of a scheduling problem.
type Mode int

const (
	// Soft schedules under probabilistic task-level constraints
	// (§III-B): each constrained task succeeds with at least the given
	// probability over independent runs.
	Soft Mode = iota
	// WeaklyHard schedules under (m,K) task-level constraints (§III-C):
	// bounded non-determinism suitable for safety-critical control.
	WeaklyHard
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Soft:
		return "soft"
	case WeaklyHard:
		return "weakly-hard"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Problem is a complete NETDAG scheduling instance.
type Problem struct {
	App      *dag.Graph    // the application (validated)
	Params   glossy.Params // hardware profiling constants of eq. (3)
	Diameter int           // bound on the network diameter D(N)

	Mode Mode

	// Objective selects what the solver minimizes: ObjectiveMakespan
	// (the zero value, the paper's latency objective) or ObjectiveEnergy
	// (per-node radio charge, with makespan and enumeration order as
	// deterministic tie-breaks). ObjectivePareto is rejected by Solve;
	// ParetoFront runs the epsilon-constraint sweep instead.
	Objective Objective

	// EnergyParams are the integer radio currents the energy objective
	// and the Schedule.EnergyPC accounting use. The zero value selects
	// DefaultEnergyParams (the CC2420-class profile of internal/lwb).
	EnergyParams EnergyParams

	// MakespanCap, when positive, is a hard feasibility constraint:
	// only schedules with makespan <= MakespanCap are admissible. It is
	// the epsilon-constraint of the Pareto sweep and — unlike the
	// incumbent-derived bound — deterministic, so it is never stripped
	// by the reproducibility redo in place. A cap below the instance's
	// optimum makes the solve fail with ErrUnsat.
	MakespanCap int64

	// NoEnergyBound disables the admissible energy lower bound at both
	// prune points of the energy-objective search (the outer χ-floor
	// charge bound and the incumbent-derived makespan cap on the timing
	// search) — the ablation knob of the PR-10 benchmark. Results are
	// identical either way — the bound is exact pruning — so the knob
	// only changes how much work the search does.
	NoEnergyBound bool

	// SoftStat and SoftCons configure Soft mode: the network statistic
	// λ_s and the per-task minimum success probabilities F_s. Tasks
	// absent from the map are unconstrained.
	SoftStat glossy.SoftStatistic
	SoftCons map[dag.TaskID]float64

	// WHStat and WHCons configure WeaklyHard mode: the network statistic
	// λ_WH and the per-task miss-form constraints F_WH.
	WHStat glossy.WHStatistic
	WHCons map[dag.TaskID]wh.MissConstraint

	// Deadlines optionally bounds task completion times (ζ(τ) <= d):
	// the task-level deadline constraints the §IV-D workflow feeds into
	// NETDAG. Tasks absent from the map are unconstrained. Deadlines
	// restrict feasibility but not the makespan objective.
	Deadlines map[dag.TaskID]int64

	// ReleaseTimes optionally forbids tasks from starting before the
	// given instant (e.g. sensor data not available until a phase
	// reference). Tasks absent from the map may start at time 0.
	ReleaseTimes map[dag.TaskID]int64

	// MaxNTX bounds the retransmission parameter per flood (χ domain is
	// MinNTX..MaxNTX). Zero selects DefaultMaxNTX.
	MaxNTX int
	// MinNTX raises the χ domain floor for every flood, beacons included.
	// It is the uniform degraded-link response of the online session
	// layer: when empirical certification reports a link worse than the
	// design statistic assumed, forcing extra retransmissions everywhere
	// restores margin without re-profiling the statistic. Zero and 1 both
	// mean the unconstrained floor; MinNTX > MaxNTX leaves no χ domain
	// and solves fail with ErrUnsat.
	MinNTX int
	// MaxRounds bounds the round assignments explored. Zero selects the
	// line graph's minimum plus DefaultExtraRounds.
	MaxRounds int
	// SolverNodes bounds the branch-and-bound timing search per round
	// assignment. Zero selects DefaultSolverNodes.
	SolverNodes int
	// Workers sets how many round assignments Solve evaluates
	// concurrently. Zero selects runtime.GOMAXPROCS(0); 1 evaluates every
	// assignment inline, on the calling goroutine. Any value returns the
	// same schedule: the reduction breaks ties deterministically
	// (makespan, then enumeration order), so results are byte-identical
	// across Workers settings whenever the timing search completes within
	// SolverNodes — raise SolverNodes if Optimal comes back false and
	// bit-exact reproducibility across worker counts matters.
	//
	// With Workers > 1, user-supplied SoftStat / WHStat implementations
	// must be safe for concurrent use; every statistic shipped in
	// internal/glossy is (they are immutable after construction).
	Workers int
	// GreedyChi forces the greedy χ optimizer even on small instances
	// (used by the ablations; the default picks exact search when the
	// flood count permits).
	GreedyChi bool
	// GreedyPlacement replaces the exact branch-and-bound timing search
	// with the polynomial chronological-dispatch heuristic (the A3
	// ablation measures the optimality gap this costs).
	GreedyPlacement bool

	// InstanceChains optionally declares groups of tasks that are
	// phase-shifted job instances of one base task — the metadata
	// multirate.Result.Chains emits when unrolling a multi-rate spec:
	// each entry lists the instance task IDs of one base task in phase
	// order. normalize uses it to extend symmetry breaking from single
	// interchangeable floods to whole instance chains (see symmetry.go),
	// collapsing the factorial orbit of identical job chains to one
	// representative. The metadata is advisory: chains that fail the
	// structural interchange conditions are ignored, so passing it is
	// always safe and never changes results — only search effort.
	InstanceChains [][]dag.TaskID

	// NoSymmetry disables interchange-class dominance skipping in the
	// outer enumeration and the per-solve χ instance memo (the ablation
	// knob of the multi-rate benchmarks). Results are identical either
	// way — skip and memo are exact — so the knob only changes how much
	// work the search does.
	NoSymmetry bool

	// NoChiFloors disables the weakly-hard per-flood window floors in
	// the admissibility lower bound (search.chiFloor), the second
	// ablation knob. Only the bound loosens: the window floors inside
	// the per-assignment χ instance are correctness constraints and
	// always apply, so results are again identical, just slower.
	NoChiFloors bool

	// iclasses are the interchange classes of message tuples (equal
	// width, identical destination sets, interchangeable sources or
	// instance chains) computed by normalize for exact placements; see
	// interchangeClasses.
	iclasses [][][]dag.MsgID

	// chiMemo caches the solved χ vector (or solve error) of every
	// distinct χ instance a solve builds. An instance depends on the
	// round assignment only through which beacons each constrained task
	// sees, so many assignments share one: a Workers = 1 search solves
	// each once, and every repeat skips the χ search — the dominant
	// per-assignment cost. The key (chiKey) comes from the assignment,
	// so a repeat builds no instance. predFloods' canonical ordering
	// makes the instances of an interchange orbit literally identical, so
	// they share an entry too. Reset by normalize, nil when NoSymmetry is
	// set.
	chiMemo *chiMemo

	// Search caches computed by normalize, shared read-only by every
	// per-assignment χ instance and by the outer search's admissibility
	// bound (safe across parallel workers):
	//
	//   - ancestors: MsgAncestors per constrained task, so the hot path
	//     stops re-walking the graph once per task per assignment;
	//   - defCol: the per-level deficit column, identical for every
	//     flood (it depends only on χ, not width);
	//   - costByWidth: the per-level slot-duration column per distinct
	//     message width (beacon width included);
	//   - chargeByWidth: the per-level flood-charge column (pC) per
	//     distinct width — the χ cost columns of the energy objective
	//     and the terms of its admissibility bound;
	//   - windowFloor: minNTXForWindow memoized per distinct window, so
	//     a rate-r task's instances share one floor computed once, not r
	//     times (-1 records an unsatisfiable window);
	//   - msgs, tasks and succs: one immutable copy each of
	//     App.Messages(), App.Tasks() and every task's App.Succs(), so
	//     the per-assignment hot path (χ instance build and placement)
	//     indexes them instead of copying them per call;
	//   - chiCons and chiErr: the task-level constraints every χ
	//     instance of the solve carries, and the error that makes every
	//     instance unsatisfiable (see buildChiCons).
	ancestors     map[dag.TaskID][]dag.MsgID
	msgs          []dag.Message
	tasks         []dag.Task
	succs         [][]dag.TaskID
	chiCons       []chiCon
	chiErr        error
	defCol        []float64
	costByWidth   map[int][]int64
	chargeByWidth map[int][]int64
	windowFloor   map[int]int
}

// chiCon is one task-level constraint as every χ instance of a solve
// carries it: the task's ancestor messages (by MsgID) and its budget,
// with the weakly-hard window floor it puts on each of its floods (0 in
// soft mode). Only the beacons of its floods depend on the assignment.
type chiCon struct {
	task   string
	msgs   []dag.MsgID
	budget float64
	floor  int
}

// Defaults for optional Problem knobs.
const (
	DefaultMaxNTX      = 8
	DefaultExtraRounds = 1
	DefaultSolverNodes = 200000
	// exactChiFloodLimit is the largest flood count for which the exact
	// χ search runs by default.
	exactChiFloodLimit = 14
)

// Errors reported by the scheduler.
var (
	ErrNoStatistic   = errors.New("core: missing network statistic for the selected mode")
	ErrBadConstraint = errors.New("core: invalid task-level constraint")
	ErrStructure     = errors.New("core: constraints violate the structure induced by the dependency graph")
	ErrUnsat         = errors.New("core: no feasible schedule satisfies the task-level constraints")
)

// normalize fills defaults and performs cheap validation shared by both
// modes.
func (p *Problem) normalize() error {
	if p.App == nil {
		return errors.New("core: nil application")
	}
	if err := p.App.Validate(); err != nil {
		return err
	}
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Diameter < 1 {
		return fmt.Errorf("core: diameter bound must be >= 1, got %d", p.Diameter)
	}
	if p.MaxNTX == 0 {
		p.MaxNTX = DefaultMaxNTX
	}
	if p.MaxNTX < 1 {
		return fmt.Errorf("core: MaxNTX must be >= 1, got %d", p.MaxNTX)
	}
	if p.MinNTX == 0 {
		p.MinNTX = 1
	}
	if p.MinNTX < 1 {
		return fmt.Errorf("core: MinNTX must be >= 0, got %d", p.MinNTX)
	}
	if p.MinNTX > p.MaxNTX {
		// ErrUnsat, not a config error: the session layer raises MinNTX in
		// response to degraded links and treats an empty χ domain as a
		// failed re-solve (falling back to safe mode), not as a bug.
		return fmt.Errorf("%w: MinNTX %d exceeds MaxNTX %d (empty χ domain)",
			ErrUnsat, p.MinNTX, p.MaxNTX)
	}
	switch p.Objective {
	case ObjectiveMakespan, ObjectiveEnergy:
	case ObjectivePareto:
		return fmt.Errorf("core: ObjectivePareto is not a single-schedule objective; use ParetoFront")
	default:
		return fmt.Errorf("core: unknown objective %v", p.Objective)
	}
	if p.EnergyParams.zero() {
		p.EnergyParams = DefaultEnergyParams()
	}
	if err := p.EnergyParams.Validate(); err != nil {
		return err
	}
	if p.MakespanCap < 0 {
		return fmt.Errorf("core: MakespanCap must be >= 0, got %d", p.MakespanCap)
	}
	if p.SolverNodes == 0 {
		p.SolverNodes = DefaultSolverNodes
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", p.Workers)
	}
	for id, d := range p.Deadlines {
		if t := p.App.Task(id); d < t.WCET {
			return fmt.Errorf("%w: task %q deadline %d below its WCET %d",
				ErrBadConstraint, t.Name, d, t.WCET)
		}
	}
	for id, r := range p.ReleaseTimes {
		if r < 0 {
			return fmt.Errorf("%w: task %q release time %d negative",
				ErrBadConstraint, p.App.Task(id).Name, r)
		}
	}
	// Interchange classes apply to every exact placement, since the
	// dominance argument only needs the placement optimum; the greedy
	// dispatcher does not compute one.
	if !p.GreedyPlacement && !p.NoSymmetry {
		p.iclasses = p.interchangeClasses()
	} else {
		p.iclasses = nil
	}
	p.chiMemo = nil
	if !p.NoSymmetry {
		p.chiMemo = &chiMemo{m: make(map[string]chiMemoEntry)}
	}
	switch p.Mode {
	case Soft:
		if p.SoftStat == nil {
			return ErrNoStatistic
		}
		for id, f := range p.SoftCons {
			if f < 0 || f > 1 {
				return fmt.Errorf("%w: task %q probability %v outside [0,1]",
					ErrBadConstraint, p.App.Task(id).Name, f)
			}
		}
		if err := p.validateSoftStructure(); err != nil {
			return err
		}
	case WeaklyHard:
		if p.WHStat == nil {
			return ErrNoStatistic
		}
		for id, c := range p.WHCons {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("%w: task %q: %v", ErrBadConstraint, p.App.Task(id).Name, err)
			}
		}
		if err := p.validateWHStructure(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown mode %v", p.Mode)
	}
	p.buildSearchCaches()
	return nil
}

// buildSearchCaches precomputes the per-solve read-only tables the
// per-assignment hot path consults: message ancestors per constrained
// task, the shared deficit column, slot-cost columns per width, and the
// per-window χ floor memo. All are immutable after normalize, so the
// parallel workers share them freely.
func (p *Problem) buildSearchCaches() {
	p.msgs = p.App.Messages()
	p.tasks = p.App.Tasks()
	p.succs = make([][]dag.TaskID, len(p.tasks))
	for i := range p.succs {
		p.succs[i] = p.App.Succs(dag.TaskID(i))
	}
	p.ancestors = make(map[dag.TaskID][]dag.MsgID, len(p.SoftCons)+len(p.WHCons))
	record := func(id dag.TaskID) {
		if _, ok := p.ancestors[id]; !ok {
			p.ancestors[id] = p.App.MsgAncestors(id)
		}
	}
	for id := range p.SoftCons {
		record(id)
	}
	for id := range p.WHCons {
		record(id)
	}
	p.defCol = make([]float64, p.MaxNTX)
	for n := 1; n <= p.MaxNTX; n++ {
		switch p.Mode {
		case Soft:
			lam := p.SoftStat.SuccessProb(n)
			if lam <= 0 {
				p.defCol[n-1] = math.Inf(1)
			} else {
				p.defCol[n-1] = -math.Log(lam)
			}
		case WeaklyHard:
			p.defCol[n-1] = float64(p.WHStat.MissConstraint(n).Misses)
		}
	}
	p.costByWidth = make(map[int][]int64)
	p.chargeByWidth = make(map[int][]int64)
	addWidth := func(w int) {
		if _, ok := p.costByWidth[w]; ok {
			return
		}
		col := make([]int64, p.MaxNTX)
		charge := make([]int64, p.MaxNTX)
		for n := 1; n <= p.MaxNTX; n++ {
			col[n-1] = p.Params.SlotDuration(n, w, p.Diameter)
			charge[n-1] = p.floodChargePC(n, w)
		}
		p.costByWidth[w] = col
		p.chargeByWidth[w] = charge
	}
	addWidth(p.Params.BeaconWidth)
	for _, m := range p.msgs {
		addWidth(m.Width)
	}
	p.windowFloor = make(map[int]int, len(p.WHCons))
	if p.Mode == WeaklyHard {
		for _, c := range p.WHCons {
			if _, ok := p.windowFloor[c.Window]; ok {
				continue
			}
			if n, ok := p.minNTXForWindow(c.Window); ok {
				p.windowFloor[c.Window] = n
			} else {
				p.windowFloor[c.Window] = -1
			}
		}
	}
	p.buildChiCons()
}

// buildChiCons turns the task-level constraints into chiCons, in task-ID
// order (not map order) so the covering constraints — and therefore any
// cost ties inside the χ search — are deterministic across runs. A task
// without networked dependencies is trivially satisfied, as is a
// non-positive soft target or a trivial weakly-hard one; weakly-hard
// constraints additionally impose per-flood window lower bounds. None of
// this depends on the round assignment, so neither does the first
// unsatisfiable constraint in task-ID order: chiErr records it, and
// every assignment that reaches the χ stage reports it.
func (p *Problem) buildChiCons() {
	p.chiCons, p.chiErr = nil, nil
	for _, t := range p.tasks {
		msgs := p.ancestors[t.ID]
		var c chiCon
		switch p.Mode {
		case Soft:
			target, has := p.SoftCons[t.ID]
			if !has || len(msgs) == 0 || target <= 0 {
				continue
			}
			if target >= 1 {
				p.chiErr = fmt.Errorf("%w: task %q demands probability 1 over a lossy bus",
					ErrUnsat, t.Name)
				return
			}
			c = chiCon{budget: -math.Log(target)}
		case WeaklyHard:
			target, has := p.WHCons[t.ID]
			if !has || len(msgs) == 0 || target.Trivial() {
				continue
			}
			c.floor = p.windowFloor[target.Window]
			if c.floor < 0 {
				p.chiErr = fmt.Errorf("%w: task %q needs a %d-round guarantee window; statistic cannot provide it within MaxNTX=%d",
					ErrUnsat, t.Name, target.Window, p.MaxNTX)
				return
			}
			c.budget = float64(target.Misses)
		}
		c.task, c.msgs = t.Name, msgs
		p.chiCons = append(p.chiCons, c)
	}
}

// validateSoftStructure enforces the §III-B structure: along every
// dependency edge between two constrained tasks, the upstream requirement
// must be at least as strong (F_s(τ) >= F_s(μ) for τ -> μ) — a weaker
// upstream task could never support a stronger downstream guarantee over
// a lossy bus.
func (p *Problem) validateSoftStructure() error {
	for _, t := range p.App.Tasks() {
		fs, ok := p.SoftCons[t.ID]
		if !ok {
			continue
		}
		for _, s := range p.App.Succs(t.ID) {
			fd, ok := p.SoftCons[s]
			if !ok {
				continue
			}
			if fs < fd {
				return fmt.Errorf("%w: soft F(%s)=%v < F(%s)=%v along %s -> %s",
					ErrStructure, t.Name, fs, p.App.Task(s).Name, fd, t.Name, p.App.Task(s).Name)
			}
		}
	}
	return nil
}

// validateWHStructure enforces the §III-C structure: along every edge
// between constrained tasks, F_WH(τ) ⪯ F_WH(μ) — the upstream constraint
// dominates (is at least as hard as) the downstream one, checked with the
// exact Bernat-Burns order on miss forms.
func (p *Problem) validateWHStructure() error {
	for _, t := range p.App.Tasks() {
		fu, ok := p.WHCons[t.ID]
		if !ok {
			continue
		}
		for _, s := range p.App.Succs(t.ID) {
			fd, ok := p.WHCons[s]
			if !ok {
				continue
			}
			if !wh.PrecedesBBMiss(fu, fd) {
				return fmt.Errorf("%w: weakly-hard F(%s)=%v does not dominate F(%s)=%v",
					ErrStructure, t.Name, fu, p.App.Task(s).Name, fd)
			}
		}
	}
	return nil
}
