package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/solver"
	"github.com/netdag/netdag/internal/wh"
)

// Schedule computes a feasible (soft or weakly-hard) real-time schedule
// minimizing makespan. The search decomposes as the paper's SMT encoding
// does implicitly:
//
//  1. enumerate admissible assignments l of messages to rounds
//     (topological partial orders of the line graph, eq. 2);
//  2. per assignment, choose χ minimizing total reserved bus time
//     subject to the task-level constraints (eq. 6 / eq. 10);
//  3. per (l, χ), place tasks and rounds exactly (branch and bound over
//     the eq. 4/5 conditions) and keep the best makespan.
//
// Rounds act as global blackout windows, so total bus time dominates the
// communication contribution to makespan; step 2's objective makes the
// decomposition makespan-minimal in all but adversarial corner cases.
// That gap to a joint (l, χ, ζ) optimum is unmeasured: the A3 ablation
// compares exact against greedy placement only, with l and χ fixed.
func Solve(p *Problem) (*Schedule, error) {
	return SolveContext(context.Background(), p)
}

// ErrCanceled reports that SolveContext's context expired before the
// search completed. When any feasible schedule had already been found,
// SolveContext returns it alongside ErrCanceled with Optimal = false —
// the incumbent is usable, just not proven makespan-minimal — so
// deadline-bound callers (the -deadline CLI flags, netdag-serve) can
// still act on the best-so-far.
var ErrCanceled = errors.New("core: solve canceled before the search completed")

// SolveContext is Solve with cooperative cancellation: the context is
// polled in the outer enumeration over round assignments (both the
// sequential loop and the parallel producer/workers) and inside the
// per-assignment branch-and-bound timing search. On expiry it returns
// (incumbent, ErrCanceled) — the incumbent being the best schedule found
// so far with Optimal = false, or nil when none was reached in time.
//
// A canceled run forfeits the determinism guarantee of the complete
// search: which incumbent is in hand when the deadline strikes depends
// on timing. Everything the incumbent claims about itself (feasibility,
// constraint satisfaction) still holds.
func SolveContext(ctx context.Context, p *Problem) (*Schedule, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	lg, err := dag.NewLineGraph(p.App)
	if err != nil {
		return nil, err
	}
	maxRounds := p.MaxRounds
	if maxRounds == 0 {
		maxRounds = lg.MinRounds() + DefaultExtraRounds
	}
	if maxRounds < lg.MinRounds() {
		return nil, fmt.Errorf("core: MaxRounds %d below the line graph's minimum %d", maxRounds, lg.MinRounds())
	}
	s := newSearch(ctx, p, lg, maxRounds)
	workers := p.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var best *candidate
	var explored int
	var firstErr *searchErr
	if workers <= 1 {
		best, explored, firstErr = s.runSequential()
	} else {
		best, explored, firstErr = s.runParallel(workers)
	}
	// A solve is canceled only if the expiry actually cut the search short
	// (s.interrupted). Re-polling ctx here would misreport a search that
	// ran to completion just before its deadline as canceled — demoting a
	// proven-optimal schedule to a non-cacheable incumbent.
	canceled := s.interrupted.Load()
	if best == nil && !canceled && p.WarmMakespan > 0 {
		// The warm hint excluded every assignment: either the delta'd
		// optimum regressed past the previous makespan, or the instance is
		// infeasible. The answer (schedule or error) must not depend on the
		// hint, so redo the whole search cold — WarmMakespan is an
		// optimization, never a constraint.
		s = newSearch(ctx, p, lg, maxRounds)
		s.warm = 0
		if workers <= 1 {
			best, explored, firstErr = s.runSequential()
		} else {
			best, explored, firstErr = s.runParallel(workers)
		}
		canceled = s.interrupted.Load()
	}
	if best == nil {
		if canceled {
			return nil, ErrCanceled
		}
		if firstErr != nil {
			return nil, firstErr.err
		}
		return nil, fmt.Errorf("%w: no admissible round assignment", ErrUnsat)
	}
	best.sched.Explored = explored
	if canceled {
		best.sched.Optimal = false
		return best.sched, ErrCanceled
	}
	return best.sched, nil
}

// search carries the state shared by the sequential and parallel outer
// searches over round assignments: the problem, the line graph, and the
// precomputed per-message χ floors that tighten the admissibility lower
// bound.
type search struct {
	ctx       context.Context
	p         *Problem
	lg        *dag.LineGraph
	maxRounds int
	cpWCET    int64
	// interrupted records that the context's expiry was actually observed
	// at a poll point — the enumeration or a timing search was cut short.
	// A search that ran to completion stays uninterrupted even if the
	// context expires at the finish line.
	interrupted atomic.Bool
	// chiFloor[m] is a lower bound on χ for message m's slot in any
	// feasible schedule. In weakly-hard mode it comes from the per-flood
	// guarantee-window requirements (minNTXForWindow over every
	// constrained task the message feeds); in soft mode it is 1.
	chiFloor []int
	// slotFloor is the assignment-independent part of the bus-time lower
	// bound: every message slot at its χ floor.
	slotFloor int64
	// chargeFloor is the assignment-independent part of the energy lower
	// bound: every message flood's charge at its χ floor (the same floors
	// that make slotFloor admissible make chargeFloor admissible, since
	// flood charge is strictly increasing in χ).
	chargeFloor int64
	// warm is Problem.WarmMakespan: a virtual incumbent (warm, idx +∞)
	// active until the first real schedule is found. SolveContext clears
	// it for the cold redo when the hint excluded every assignment.
	warm int64
}

// candidate is a schedule paired with its position in the deterministic
// enumeration order, the tie-break of the parallel reduction.
type candidate struct {
	sched *Schedule
	idx   int
}

// searchErr is an error paired with its enumeration position so the
// parallel search reports the same "first" error the sequential one does.
type searchErr struct {
	idx int
	err error
}

func newSearch(ctx context.Context, p *Problem, lg *dag.LineGraph, maxRounds int) *search {
	s := &search{
		ctx:       ctx,
		p:         p,
		lg:        lg,
		maxRounds: maxRounds,
		cpWCET:    p.App.CriticalPathWCET(),
		chiFloor:  make([]int, p.App.NumMessages()),
		warm:      p.WarmMakespan,
	}
	for m := range s.chiFloor {
		s.chiFloor[m] = p.MinNTX
	}
	if p.Mode == WeaklyHard && !p.NoChiFloors {
		// chiFloor[m] must be the strongest window floor demanded by any
		// constrained task m can affect. Instead of one ancestor walk per
		// constrained task — O(K·graph), and a rate-r unrolling multiplies
		// K by r — a single reverse-topological DP computes up[t], the
		// maximum floor over constrained tasks reachable from t via data
		// edges (t included), and each message takes the max over its
		// consumers. Identical floors to the per-task walks: m is an
		// ancestor of τ exactly when some consumer of m reaches τ over
		// data edges.
		up := make([]int, p.App.NumTasks())
		for _, t := range p.App.Tasks() {
			target, has := p.WHCons[t.ID]
			if !has || target.Trivial() {
				continue
			}
			minN := p.windowFloor[target.Window]
			if minN < 0 {
				// The instance is unsat; scheduleForAssignment reports it
				// with the offending task. Clamp so the bound stays valid.
				minN = p.MaxNTX
			}
			up[t.ID] = minN
		}
		// The application validated, so a topological order exists.
		order, _ := p.App.TopoOrder()
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			for _, succ := range p.App.Succs(id) {
				if p.App.OrderOnly(id, succ) {
					continue
				}
				if up[succ] > up[id] {
					up[id] = up[succ]
				}
			}
		}
		for _, m := range p.App.Messages() {
			for _, d := range m.Dests {
				if up[d] > s.chiFloor[m.ID] {
					s.chiFloor[m.ID] = up[d]
				}
			}
		}
	}
	for _, m := range p.App.Messages() {
		s.slotFloor += p.Params.SlotDuration(s.chiFloor[m.ID], m.Width, p.Diameter)
		s.chargeFloor += p.chargeByWidth[m.Width][s.chiFloor[m.ID]-1]
	}
	return s
}

// lowerBound is the cheap per-assignment makespan bound: rounds are
// global blackouts, so the makespan is at least the critical-path WCET
// plus the cheapest possible bus time, with every flood at its χ floor.
// Beacons inherit the floor of the messages sharing their round, since
// the weakly-hard window requirement applies to every predecessor flood
// (eq. 10), beacons included.
func (s *search) lowerBound(assign []int) int64 {
	rounds := 0
	for _, r := range assign {
		if r+1 > rounds {
			rounds = r + 1
		}
	}
	lb := s.cpWCET + s.slotFloor
	beacon := make([]int, rounds)
	for m, r := range assign {
		if s.chiFloor[m] > beacon[r] {
			beacon[r] = s.chiFloor[m]
		}
	}
	for r := 0; r < rounds; r++ {
		n := beacon[r]
		if n < s.p.MinNTX {
			n = s.p.MinNTX
		}
		lb += s.p.Params.BeaconDuration(n, s.p.Diameter)
	}
	return lb
}

// energyLowerBound is the cheap per-assignment energy bound, the
// admissibility counterpart of lowerBound under ObjectiveEnergy: every
// message flood at its χ-floor charge (chargeFloor), every round beacon
// at the floor inherited from the messages sharing its round, plus sleep
// leakage over the critical-path WCET — rounds are global blackouts, so
// at least cpWCET µs of computation happen with the radio off. Flood
// charge is strictly increasing in χ (see floodChargePC), so raising any
// flood above its floor only adds charge: the bound never exceeds the
// energy of any feasible schedule for this assignment.
func (s *search) energyLowerBound(assign []int) int64 {
	rounds := 0
	for _, r := range assign {
		if r+1 > rounds {
			rounds = r + 1
		}
	}
	lb := s.chargeFloor + s.cpWCET*s.p.EnergyParams.SleepCurrentUA
	beacon := make([]int, rounds)
	for m, r := range assign {
		if s.chiFloor[m] > beacon[r] {
			beacon[r] = s.chiFloor[m]
		}
	}
	beaconCharge := s.p.chargeByWidth[s.p.Params.BeaconWidth]
	for r := 0; r < rounds; r++ {
		n := beacon[r]
		if n < s.p.MinNTX {
			n = s.p.MinNTX
		}
		lb += beaconCharge[n-1]
	}
	return lb
}

// prunable reports whether an assignment with the given lower bound and
// enumeration index provably cannot beat the incumbent under the total
// order (makespan, then enumeration index): its bound exceeds the
// incumbent makespan, or matches it without winning the index tie.
func prunable(lb int64, idx int, incMakespan int64, incIdx int) bool {
	return lb > incMakespan || (lb >= incMakespan && idx > incIdx)
}

// assignBound is the shared outer prune point: it decides whether the
// assignment can be skipped outright — its makespan bound exceeds the
// hard MakespanCap, or it provably cannot beat the incumbent under the
// objective's total order — and otherwise returns the incumbent scalar
// (makespan under ObjectiveMakespan, energy pC under ObjectiveEnergy) to
// feed the timing search as scheduleForAssignment's bound (-1 for none).
//
// Under ObjectiveEnergy the incumbent prune must be strict on energy
// alone: an equal-energy candidate can still win on smaller makespan, so
// the index tie-break only applies when both bounds match the incumbent.
// The NoEnergyBound ablation skips the incumbent-derived pruning
// entirely (the cap, being a hard constraint, always applies).
func (s *search) assignBound(assign []int, idx int, inc *incumbentRec) (prune bool, bound int64) {
	if inc == nil && s.p.MakespanCap <= 0 {
		return false, -1
	}
	mlb := s.lowerBound(assign)
	if s.p.MakespanCap > 0 && mlb > s.p.MakespanCap {
		return true, -1
	}
	if inc == nil {
		return false, -1
	}
	if s.p.Objective == ObjectiveEnergy {
		if s.p.NoEnergyBound {
			return false, -1
		}
		elb := s.energyLowerBound(assign)
		if elb > inc.energy ||
			(elb >= inc.energy && (mlb > inc.makespan || (mlb >= inc.makespan && idx > inc.idx))) {
			return true, -1
		}
		return false, inc.energy
	}
	if prunable(mlb, idx, inc.makespan, inc.idx) {
		return true, -1
	}
	return false, inc.makespan
}

// runSequential is the Workers = 1 search: enumerate assignments in
// order, prune against the running best, and keep the first schedule
// achieving the minimum makespan.
func (s *search) runSequential() (*candidate, int, *searchErr) {
	var best *candidate
	explored := 0
	var firstErr *searchErr
	s.lg.EnumerateAssignments(s.maxRounds, func(l []int) bool {
		if s.ctx.Err() != nil {
			s.interrupted.Store(true)
			return false // canceled: stop enumerating, keep the incumbent
		}
		idx := explored
		explored++
		var inc *incumbentRec
		if best != nil {
			inc = &incumbentRec{energy: best.sched.EnergyPC, makespan: best.sched.Makespan, idx: best.idx}
		} else if s.warm > 0 {
			// Virtual incumbent (warm, +∞): prune exactly what a real
			// incumbent at the warm makespan would (the index tie-break
			// never fires against +∞), and cap the timing search likewise.
			// Everything pruned here has optimum > warm ≥ the previous
			// schedule, so it cannot win a cold search whose optimum is
			// ≤ warm; when no assignment survives, SolveContext redoes the
			// search cold. (Warm hints only exist under ObjectiveMakespan;
			// normalize clears them otherwise.)
			inc = &incumbentRec{energy: math.MaxInt64, makespan: s.warm, idx: math.MaxInt}
		}
		prune, bound := s.assignBound(l, idx, inc)
		if prune {
			return true
		}
		assign := append([]int(nil), l...)
		sched, err := s.p.scheduleForAssignment(s.ctx, assign, bound)
		if err != nil {
			if errors.Is(err, solver.ErrCanceled) {
				s.interrupted.Store(true)
			}
			if !skippableSearchErr(err) && firstErr == nil {
				firstErr = &searchErr{idx: idx, err: err}
			}
			return true
		}
		if !sched.Optimal && s.ctx.Err() != nil {
			// The timing search kept an incumbent but was cut short.
			s.interrupted.Store(true)
		}
		if best == nil || s.p.betterCand(sched.EnergyPC, sched.Makespan, idx,
			best.sched.EnergyPC, best.sched.Makespan, best.idx) {
			best = &candidate{sched: sched, idx: idx}
		}
		return true
	})
	return best, explored, firstErr
}

// predFloods returns, for a task's cached ancestor messages, the flood
// indices of pred(τ): the messages plus the beacons of the rounds
// carrying them. Flood indexing: messages occupy 0..M-1 (by MsgID),
// beacons occupy M..M+R-1 (by round index). The list is canonical —
// messages in MsgID order, then beacons in round order — NOT in the
// interleaved order a MsgAncestors walk would visit them. Canonicality
// matters for the symmetry machinery: the χ solver breaks score ties by
// list position, and under the interleaved order two round assignments
// in the same interchange orbit would render the same constraint with
// its beacons in different positions, letting the solver pick different
// χ vectors for instances that are identical as sets. With the
// canonical order the orbit's χ instances are literally identical, so
// the solved vector is too — the fact dominatedAssignment and the
// per-orbit χ memo rely on.
func predFloods(msgs []dag.MsgID, assign []int, nMsgs int) []int {
	floods := make([]int, len(msgs), 2*len(msgs))
	for i, m := range msgs {
		floods[i] = int(m)
	}
	var rounds []int
	for _, m := range msgs {
		r := assign[m]
		dup := false
		for _, seen := range rounds {
			if seen == r {
				dup = true
				break
			}
		}
		if !dup {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		floods = append(floods, nMsgs+r)
	}
	return floods
}

// errBoundPruned reports that the timing search was cut off by the
// incumbent makespan bound: the assignment provably cannot beat the best
// schedule already found. This is a pruning outcome, not a failure, and
// must never surface to Solve's caller.
var errBoundPruned = errors.New("core: assignment pruned by the incumbent makespan bound")

// errDominated reports that the assignment is a symmetry duplicate of an
// earlier-enumerated one (see dominatedAssignment). Like errBoundPruned
// it is a pruning outcome internal to the search.
var errDominated = errors.New("core: assignment dominated under flood-slot interchange")

// skippableSearchErr reports whether a per-assignment error must not be
// recorded as the search's first error: bound prunes and symmetry skips
// are normal search outcomes, and a cancellation that struck before the
// assignment yielded any schedule is reported once at the SolveContext
// level, not per assignment (its position in the enumeration is
// timing-dependent).
func skippableSearchErr(err error) bool {
	return err == errBoundPruned || err == errDominated || errors.Is(err, solver.ErrCanceled)
}

// scheduleForAssignment runs steps 2 and 3 for one round assignment.
// bound, when >= 0, is the makespan of the best schedule found so far; it
// is fed to the timing search as an upper bound so hopeless branches are
// cut early. A bound-induced dead end returns errBoundPruned.
func (p *Problem) scheduleForAssignment(ctx context.Context, assign []int, bound int64) (*Schedule, error) {
	app := p.App
	msgs := p.msgs
	nMsgs := len(msgs)
	rounds := 0
	for _, r := range assign {
		if r+1 > rounds {
			rounds = r + 1
		}
	}
	nFloods := nMsgs + rounds

	// Per-orbit χ memo: with canonical predFloods ordering, every member
	// of an interchange orbit builds the literally identical χ instance
	// (see symmetry.go), so the solved vector — or the solve's error — is
	// a pure function of the orbit. The orbit is keyed by the canonical
	// assignment; a non-representative member that finds the entry skips
	// the χ search entirely, which is the dominant per-assignment cost on
	// multi-rate instances. The sequential search always hits (the
	// representative enumerates earlier and the admissibility bound is
	// orbit-invariant, so it was solved first); a parallel worker that
	// races ahead of the representative just misses and solves the same
	// instance itself — identical results either way.
	var memoKey string
	if p.chiMemo != nil {
		if key, rep, ok := p.canonicalAssignKey(assign); ok {
			memoKey = key
			if !rep {
				if v, hit := p.chiMemo.Load(key); hit {
					ent := v.(chiMemoEntry)
					if ent.err != nil {
						return nil, ent.err
					}
					if p.dominatedAssignment(assign, ent.chi) {
						return nil, errDominated
					}
					return p.place(ctx, assign, ent.chi, rounds, bound)
				}
			}
		}
	}

	// Per-flood tables alias the normalize-time caches: the deficit
	// column is flood-independent and the cost column depends only on
	// width, so one solve's assignments share the same few read-only
	// slices instead of allocating O(floods × MaxNTX) per assignment.
	// The χ covering search minimizes the objective's scalarization of
	// bus reservations: slot durations under ObjectiveMakespan, exact
	// flood charges under ObjectiveEnergy (both columns are increasing
	// in χ, which the covering solver requires).
	costTab := p.costByWidth
	if p.Objective == ObjectiveEnergy {
		costTab = p.chargeByWidth
	}
	ci := &chiInstance{
		n:     nFloods,
		upper: p.MaxNTX,
		lower: make([]int, nFloods),
		def:   make([][]float64, nFloods),
		cost:  make([][]int64, nFloods),
	}
	ci.cons = make([]chiConstraint, 0, len(p.SoftCons)+len(p.WHCons))
	beaconCost := costTab[p.Params.BeaconWidth]
	for f := 0; f < nFloods; f++ {
		ci.lower[f] = p.MinNTX
		ci.def[f] = p.defCol
		if f < nMsgs {
			ci.cost[f] = costTab[msgs[f].Width]
		} else {
			ci.cost[f] = beaconCost
		}
	}

	// Task-level constraints become covering constraints; weakly-hard
	// constraints additionally impose per-flood window lower bounds.
	// Iterate tasks in ID order (not map order) so the covering
	// constraints — and therefore any cost ties inside the χ search —
	// are deterministic across runs.
	switch p.Mode {
	case Soft:
		for _, task := range app.Tasks() {
			id := task.ID
			target, has := p.SoftCons[id]
			if !has {
				continue
			}
			floods := predFloods(p.ancestors[id], assign, nMsgs)
			if len(floods) == 0 || target <= 0 {
				continue // trivially satisfied: no networked dependencies
			}
			if target >= 1 {
				return nil, fmt.Errorf("%w: task %q demands probability 1 over a lossy bus",
					ErrUnsat, app.Task(id).Name)
			}
			ci.cons = append(ci.cons, chiConstraint{
				task:   app.Task(id).Name,
				floods: floods,
				budget: -math.Log(target),
			})
		}
	case WeaklyHard:
		for _, task := range app.Tasks() {
			id := task.ID
			target, has := p.WHCons[id]
			if !has {
				continue
			}
			floods := predFloods(p.ancestors[id], assign, nMsgs)
			if len(floods) == 0 || target.Trivial() {
				continue
			}
			// Window bound: every predecessor flood's guarantee window
			// must cover the requirement's (the ⊕ window is the minimum
			// over predecessors, and eq. 10 needs it >= F.Window).
			minN := p.windowFloor[target.Window]
			if minN < 0 {
				return nil, fmt.Errorf("%w: task %q needs a %d-round guarantee window; statistic cannot provide it within MaxNTX=%d",
					ErrUnsat, app.Task(id).Name, target.Window, p.MaxNTX)
			}
			for _, f := range floods {
				if minN > ci.lower[f] {
					ci.lower[f] = minN
				}
			}
			ci.cons = append(ci.cons, chiConstraint{
				task:   app.Task(id).Name,
				floods: floods,
				budget: float64(target.Misses),
			})
		}
	}

	chi, err := ci.solve(p.GreedyChi)
	if memoKey != "" {
		p.chiMemo.LoadOrStore(memoKey, chiMemoEntry{chi: chi, err: err})
	}
	if err != nil {
		return nil, err
	}

	if len(p.iclasses) > 0 && p.dominatedAssignment(assign, chi) {
		return nil, errDominated
	}

	return p.place(ctx, assign, chi, rounds, bound)
}

// minNTXForWindow returns the smallest n with λ_WH(n).Window >= w.
func (p *Problem) minNTXForWindow(w int) (int, bool) {
	for n := 1; n <= p.MaxNTX; n++ {
		if p.WHStat.MissConstraint(n).Window >= w {
			return n, true
		}
	}
	return 0, false
}

// place runs the exact timing search for fixed (l, χ) and assembles the
// Schedule. bound, when >= 0, is the incumbent's scalar under the active
// objective — a makespan under ObjectiveMakespan (applied directly via
// solver.MakespanBound), an energy in pC under ObjectiveEnergy (translated
// into a derived makespan cap below) — so the branch-and-bound is cut off
// by schedules already found for other assignments; a search the bound
// renders infeasible returns errBoundPruned. Problem.MakespanCap, the hard
// feasibility cap the Pareto sweep constrains with, is applied on top.
// When the node budget truncates a search under the *incumbent-derived*
// bound, the search is redone without it: the bound value depends on which
// worker found the incumbent first, and a truncated result must not, or
// parallel runs would stop being reproducible (MakespanCap is part of the
// problem, not a racing artifact, so the redo keeps it). A canceled search
// is never redone; its incumbent (if any) is returned as a non-optimal
// schedule.
func (p *Problem) place(ctx context.Context, assign, chi []int, rounds int, bound int64) (*Schedule, error) {
	app := p.App
	msgs := p.msgs
	nMsgs := len(msgs)

	// Round durations per eq. (3): beacon term + slot terms.
	roundDur := make([]int64, rounds)
	roundSlots := make([][]Slot, rounds)
	for r := 0; r < rounds; r++ {
		roundDur[r] = p.Params.BeaconDuration(chi[nMsgs+r], p.Diameter)
	}
	for _, m := range msgs {
		r := assign[m.ID]
		d := p.Params.SlotDuration(chi[m.ID], m.Width, p.Diameter)
		roundDur[r] += d
		roundSlots[r] = append(roundSlots[r], Slot{
			Msg: m.ID, NTX: chi[m.ID], Width: m.Width, Duration: d,
		})
	}

	// The timing search minimizes makespan. Under ObjectiveEnergy that is
	// still the right inner objective: for fixed (l, χ) the radio-on
	// charge onCharge is a constant, so energy = onCharge +
	// SleepCurrentUA·(makespan − onUS) is monotone non-decreasing in
	// makespan and the makespan-minimal placement is the energy-minimal
	// one. The incumbent energy bound translates into a derived makespan
	// cap: energy ≤ bound ⇔ makespan ≤ onUS + (bound − onCharge)/sleep
	// (floor division keeps the cap inclusive-safe: any makespan at or
	// under it has energy ≤ bound).
	mk := bound // incumbent-derived makespan cap; -1 for none
	if bound >= 0 && p.Objective == ObjectiveEnergy {
		var onUS, onCharge int64
		for r := 0; r < rounds; r++ {
			onUS += roundDur[r]
			onCharge += p.floodChargePC(chi[nMsgs+r], p.Params.BeaconWidth)
		}
		for _, m := range msgs {
			onCharge += p.floodChargePC(chi[m.ID], m.Width)
		}
		switch {
		case onCharge > bound:
			// Radio-on charge alone already exceeds the incumbent energy:
			// no placement of this (l, χ) can win.
			return nil, errBoundPruned
		case p.EnergyParams.SleepCurrentUA > 0:
			mk = onUS + (bound-onCharge)/p.EnergyParams.SleepCurrentUA
		default:
			// Zero sleep current: every placement of this (l, χ) costs
			// exactly onCharge ≤ bound — nothing to cut on makespan.
			mk = -1
		}
	}
	eff := mk
	if p.MakespanCap > 0 && (eff < 0 || p.MakespanCap < eff) {
		eff = p.MakespanCap
	}

	prob := solver.NewProblem(1)
	// TaskIDs are dense indices, so a slice beats a map on the
	// per-assignment hot path (place runs once per enumerated round
	// assignment, and every precedence/disjunction below consults it).
	taskAct := make([]solver.ActID, app.NumTasks())
	for _, t := range app.Tasks() {
		taskAct[t.ID] = prob.AddActivity(t.Name, t.WCET)
	}
	roundAct := make([]solver.ActID, rounds)
	for r := 0; r < rounds; r++ {
		roundAct[r] = prob.AddActivity(fmt.Sprintf("round%d", r), roundDur[r])
	}
	// (4a) task precedence.
	for _, t := range app.Tasks() {
		for _, s := range app.Succs(t.ID) {
			prob.Precede(taskAct[t.ID], taskAct[s])
		}
	}
	// (4b) rounds totally ordered.
	for r := 1; r < rounds; r++ {
		prob.Precede(roundAct[r-1], roundAct[r])
	}
	// (4c) producers before the round; consumers after.
	for _, m := range msgs {
		r := assign[m.ID]
		prob.Precede(taskAct[m.Source], roundAct[r])
		for _, c := range m.Dests {
			prob.Precede(roundAct[r], taskAct[c])
		}
	}
	// (5) tasks never overlap communication.
	for _, t := range app.Tasks() {
		for r := 0; r < rounds; r++ {
			prob.Disjoint(taskAct[t.ID], roundAct[r])
		}
	}
	// Task-level deadlines and release times (ζ constraints).
	for id, d := range p.Deadlines {
		prob.Deadline(taskAct[id], d)
	}
	for id, rel := range p.ReleaseTimes {
		prob.Release(taskAct[id], rel)
	}
	if eff >= 0 {
		prob.MakespanBound(eff)
	}
	var res solver.Result
	var err error
	if p.GreedyPlacement {
		res, err = prob.Greedy()
		if errors.Is(err, solver.ErrBounded) {
			return nil, errBoundPruned
		}
	} else {
		res, err = prob.MinimizeContext(ctx, p.SolverNodes)
		canceled := errors.Is(err, solver.ErrCanceled)
		if canceled && res.Makespan >= 0 {
			// Cancellation struck after a feasible placement was found:
			// keep the incumbent (Optimal is already false). Within a
			// bound it genuinely competes against the shared incumbent.
			err = nil
		}
		if eff >= 0 && errors.Is(err, solver.ErrBounded) {
			return nil, errBoundPruned
		}
		if mk >= 0 && !canceled && (errors.Is(err, solver.ErrBudget) || (err == nil && !res.Optimal)) {
			// Redo without the incumbent-derived bound only: the
			// MakespanCap, being deterministic, stays via eff.
			return p.place(ctx, assign, chi, rounds, -1)
		}
	}
	if errors.Is(err, solver.ErrCanceled) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("core: timing search failed: %w", err)
	}

	sched := &Schedule{
		Mode:   p.Mode,
		Tasks:  make(map[dag.TaskID]TaskTime, app.NumTasks()),
		Assign: append([]int(nil), assign...),
	}
	for _, t := range app.Tasks() {
		st := res.Starts[taskAct[t.ID]]
		sched.Tasks[t.ID] = TaskTime{Task: t.ID, Start: st, Finish: st + t.WCET}
	}
	for r := 0; r < rounds; r++ {
		sched.Rounds = append(sched.Rounds, Round{
			Index:     r,
			Start:     res.Starts[roundAct[r]],
			Duration:  roundDur[r],
			BeaconNTX: chi[nMsgs+r],
			Slots:     roundSlots[r],
		})
		sched.BusTime += roundDur[r]
	}
	sched.Makespan = res.Makespan
	sched.Optimal = res.Optimal
	sched.SolverNodes = res.Nodes
	sched.EnergyPC = p.scheduleEnergyPC(sched)
	return sched, nil
}

// MinMakespan returns only the optimal makespan for the problem — the
// "minimum feasible latency" query of §IV-B that drives figs. 2 and 4.
func MinMakespan(p *Problem) (int64, error) {
	s, err := Solve(p)
	if err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// ErrScheduleMismatch reports that a schedule does not cover the
// application it is being audited against — e.g. a message the
// application defines has no slot in any round. The guarantee auditors
// return it instead of feeding an out-of-domain χ = 0 into the network
// statistic (which panics).
var ErrScheduleMismatch = errors.New("core: schedule does not match the application")

// predRound returns the round index carrying message m, checking that
// the schedule actually covers it.
func predRound(s *Schedule, m dag.MsgID) (int, error) {
	if int(m) < 0 || int(m) >= len(s.Assign) {
		return 0, fmt.Errorf("%w: message %d has no round assignment", ErrScheduleMismatch, m)
	}
	r := s.Assign[m]
	if r < 0 || r >= len(s.Rounds) {
		return 0, fmt.Errorf("%w: message %d assigned to round %d of %d", ErrScheduleMismatch, m, r, len(s.Rounds))
	}
	return r, nil
}

// SatisfiedSoft reports the success probability the schedule guarantees
// for the given task under the problem's statistic (the left side of
// eq. 6), or 1 when it has no networked dependencies. Auditing a schedule
// that does not cover the task's predecessor messages returns
// ErrScheduleMismatch.
func SatisfiedSoft(p *Problem, s *Schedule, id dag.TaskID) (float64, error) {
	prob := 1.0
	msgs := p.App.MsgAncestors(id)
	roundSeen := make(map[int]bool)
	for _, m := range msgs {
		ntx, ok := s.SlotNTX(m)
		if !ok {
			return 0, fmt.Errorf("%w: message %d has no slot", ErrScheduleMismatch, m)
		}
		prob *= p.SoftStat.SuccessProb(ntx)
		r, err := predRound(s, m)
		if err != nil {
			return 0, err
		}
		if !roundSeen[r] {
			roundSeen[r] = true
			prob *= p.SoftStat.SuccessProb(s.Rounds[r].BeaconNTX)
		}
	}
	return prob, nil
}

// SatisfiedWH returns the ⊕-folded guarantee the schedule provides for
// the given task (the left side of eq. 9/10) and whether the task has
// networked dependencies at all. Auditing a schedule that does not cover
// the task's predecessor messages returns ErrScheduleMismatch.
func SatisfiedWH(p *Problem, s *Schedule, id dag.TaskID) (wh.MissConstraint, bool, error) {
	msgs := p.App.MsgAncestors(id)
	if len(msgs) == 0 {
		return wh.MissConstraint{}, false, nil
	}
	var gs []wh.MissConstraint
	roundSeen := make(map[int]bool)
	for _, m := range msgs {
		ntx, ok := s.SlotNTX(m)
		if !ok {
			return wh.MissConstraint{}, false, fmt.Errorf("%w: message %d has no slot", ErrScheduleMismatch, m)
		}
		gs = append(gs, p.WHStat.MissConstraint(ntx))
		r, err := predRound(s, m)
		if err != nil {
			return wh.MissConstraint{}, false, err
		}
		if !roundSeen[r] {
			roundSeen[r] = true
			gs = append(gs, p.WHStat.MissConstraint(s.Rounds[r].BeaconNTX))
		}
	}
	return wh.OplusAll(gs...), true, nil
}
