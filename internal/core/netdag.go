package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
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
// polled in the outer enumeration over round assignments (the producer
// and any workers) and inside the per-assignment branch-and-bound timing
// search. On expiry it returns
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
	best, firstErr := s.run(workers)
	// A solve is canceled only if the expiry actually cut the search short
	// (s.interrupted). Re-polling ctx here would misreport a search that
	// ran to completion just before its deadline as canceled — demoting a
	// proven-optimal schedule to a non-cacheable incumbent.
	canceled := s.interrupted.Load()
	if best == nil {
		if canceled {
			return nil, ErrCanceled
		}
		if firstErr != nil {
			return nil, firstErr.err
		}
		return nil, fmt.Errorf("%w: no admissible round assignment", ErrUnsat)
	}
	best.sched.Explored = s.explored
	if canceled {
		best.sched.Optimal = false
		return best.sched, ErrCanceled
	}
	return best.sched, nil
}

// search carries the state of one outer search over round assignments
// (see run): the problem, the line graph, the precomputed per-message χ
// floors that tighten the admissibility lower bounds, and the shared
// incumbent.
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
	// beaconDur and beaconCharge are the beacon's duration and charge
	// columns, indexed by χ−1: the per-round terms of the lower bounds.
	beaconDur, beaconCharge []int64
	// inc is the best outcome published so far, read by every prune
	// point; nil until the first schedule is found.
	inc atomic.Pointer[incumbentRec]
	// explored counts the enumerated assignments, cut those of them the
	// tier cut skipped. Only the producer writes them.
	explored, cut int
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
	for _, m := range p.msgs {
		s.slotFloor += p.Params.SlotDuration(s.chiFloor[m.ID], m.Width, p.Diameter)
		s.chargeFloor += p.chargeByWidth[m.Width][s.chiFloor[m.ID]-1]
	}
	s.beaconDur = p.costByWidth[p.Params.BeaconWidth]
	s.beaconCharge = p.chargeByWidth[p.Params.BeaconWidth]
	return s
}

// roundCount returns the number of rounds assign uses.
func roundCount(assign []int) int {
	rounds := 0
	for _, r := range assign {
		rounds = max(rounds, r+1)
	}
	return rounds
}

// lowerBounds returns the cheap per-assignment bounds on makespan and
// energy, with every flood at its χ floor. Makespan: rounds are global
// blackouts, so it is at least the critical-path WCET plus the cheapest
// possible bus time. Energy: every message flood at its χ-floor charge
// (chargeFloor) plus sleep leakage over the critical-path WCET, since at
// least cpWCET µs of computation happen with the radio off; flood charge
// is strictly increasing in χ (see floodChargePC), so raising any flood
// only adds charge. Beacons inherit the floor of the messages sharing
// their round, since the weakly-hard window requirement applies to every
// predecessor flood (eq. 10), beacons included. Neither bound exceeds
// the value of any feasible schedule for the assignment.
func (s *search) lowerBounds(assign []int) (mlb, elb int64) {
	mlb = s.cpWCET + s.slotFloor
	elb = s.chargeFloor + s.cpWCET*s.p.EnergyParams.SleepCurrentUA
	rounds := roundCount(assign)
	for r := 0; r < rounds; r++ {
		n := s.p.MinNTX
		for m, mr := range assign {
			if mr == r {
				n = max(n, s.chiFloor[m])
			}
		}
		mlb += s.beaconDur[n-1]
		elb += s.beaconCharge[n-1]
	}
	return mlb, elb
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
func (s *search) assignBound(assign []int, idx int, inc *incumbentRec) (prune bool, bound int64) {
	if inc == nil && s.p.MakespanCap <= 0 {
		return false, -1
	}
	mlb, elb := s.lowerBounds(assign)
	return s.boundPrune(mlb, elb, idx, inc)
}

// tierCut reports whether assignBound would prune the cheapest possible
// member of the tier of assignments using `rounds` rounds, at enumeration
// index idx: every message at its χ floor and every beacon at MinNTX. Its
// bounds are at most lowerBounds of every assignment in the tier, and
// they grow with rounds, so when it is pruned, so is everything left in
// the tier and in every later tier.
func (s *search) tierCut(rounds, idx int, inc *incumbentRec) bool {
	if inc == nil && s.p.MakespanCap <= 0 {
		return false
	}
	r := int64(rounds)
	mlb := s.cpWCET + s.slotFloor + r*s.beaconDur[s.p.MinNTX-1]
	elb := s.chargeFloor + s.cpWCET*s.p.EnergyParams.SleepCurrentUA + r*s.beaconCharge[s.p.MinNTX-1]
	prune, _ := s.boundPrune(mlb, elb, idx, inc)
	return prune
}

// boundPrune decides assignBound for the lower bounds (mlb, elb).
//
// Under ObjectiveEnergy the incumbent prune must be strict on energy
// alone: an equal-energy candidate can still win on smaller makespan, so
// the index tie-break only applies when both bounds match the incumbent.
// The NoEnergyBound ablation skips the incumbent-derived pruning
// entirely (the cap, being a hard constraint, always applies). The
// decision is monotone: raising either bound or the index never turns a
// prune into a keep, which is what makes tierCut sound.
func (s *search) boundPrune(mlb, elb int64, idx int, inc *incumbentRec) (prune bool, bound int64) {
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

// predFloods appends to dst, for a task's cached ancestor messages, the
// flood indices of pred(τ): the messages plus the beacons of the rounds
// carrying them. Flood indexing: messages occupy 0..M-1 (by MsgID),
// beacons occupy M..M+R-1 (by round index). The list is canonical —
// messages as listed (in MsgID order), then beacons in ascending round
// — NOT in the interleaved order a MsgAncestors walk would visit them.
// Canonicality matters for the symmetry machinery: the χ solver breaks score ties by
// list position, and under the interleaved order two round assignments
// in the same interchange orbit would render the same constraint with
// its beacons in different positions, letting the solver pick different
// χ vectors for instances that are identical as sets. With the
// canonical order the orbit's χ instances are literally identical, so
// the solved vector is too — the fact dominatedAssignment relies on. It
// also means assignments with equal chiKey build literally identical
// instances, so sharing a memo entry between them is exact.
//
// marks has one entry per round of assign, all false: predFloods marks
// the rounds carrying msgs and clears each mark as it appends the
// round's beacon, so it needs no round list and no sort.
func predFloods(dst []int, marks []bool, msgs []dag.MsgID, assign []int, nMsgs int) []int {
	for _, m := range msgs {
		dst = append(dst, int(m))
		marks[assign[m]] = true
	}
	for r, on := range marks {
		if on {
			dst = append(dst, nMsgs+r)
			marks[r] = false
		}
	}
	return dst
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

// scratch is one search consumer's reusable per-assignment state — the
// inline Workers = 1 path, or one pool worker: the χ instance a memo
// miss fills in place, and the placement template. It is never shared
// between goroutines, and its zero value is ready to use.
type scratch struct {
	chi chiInstance
	tpl placeTemplate
}

// scheduleForAssignment runs steps 2 and 3 for one round assignment on
// the consumer's scratch. bound, when >= 0, is the makespan of the best
// schedule found so far; it is fed to the timing search as an upper
// bound so hopeless branches are cut early. A bound-induced dead end
// returns errBoundPruned.
func (p *Problem) scheduleForAssignment(ctx context.Context, sc *scratch, assign []int, bound int64) (*Schedule, error) {
	rounds := roundCount(assign)
	ent := p.chiFor(&sc.chi, assign, rounds)
	if ent.err != nil {
		return nil, ent.err
	}
	if len(p.iclasses) > 0 && p.dominatedAssignment(assign, ent.chi) {
		return nil, errDominated
	}
	sched, err := p.place(ctx, &sc.tpl, assign, ent.chi, rounds, bound)
	if err == nil {
		sched.ChiExact = ent.exact
	}
	return sched, err
}

// chiFor returns the solved χ entry of assign's instance, or the
// per-task error that makes every instance of the solve unsatisfiable.
// With the memo on, the key comes straight from the assignment, so a hit
// builds no instance; a miss fills ci, the consumer's χ scratch, solves
// it and stores the entry.
func (p *Problem) chiFor(ci *chiInstance, assign []int, rounds int) chiMemoEntry {
	if p.chiErr != nil {
		return chiMemoEntry{err: p.chiErr}
	}
	if p.chiMemo == nil {
		p.fillChi(ci, assign, rounds)
		return ci.solveEntry(p.GreedyChi)
	}
	var buf [512]byte
	key := p.chiKey(buf[:0], assign, rounds)
	if ent, ok := p.chiMemo.get(key); ok {
		return ent
	}
	p.fillChi(ci, assign, rounds)
	ent := ci.solveEntry(p.GreedyChi)
	p.chiMemo.put(key, ent)
	return ent
}

// chiKey appends the χ memo key of assign's instance to key: the round
// count, then, per constraint of chiCons, the set of rounds carrying its
// ancestor messages as a bitmask in 64-round words. The constraints and
// their message lists are fixed for the solve, and an instance depends
// on the assignment only through the round count and those sets, so
// equal keys mean identical instances.
func (p *Problem) chiKey(key []byte, assign []int, rounds int) []byte {
	key = binary.AppendUvarint(key, uint64(rounds))
	for i := range p.chiCons {
		msgs := p.chiCons[i].msgs
		for w := 0; w < rounds; w += 64 {
			var mask uint64
			for _, m := range msgs {
				if r := assign[m] - w; r >= 0 && r < 64 {
					mask |= 1 << r
				}
			}
			key = binary.AppendUvarint(key, mask)
		}
	}
	return key
}

// fillChi fills ci with the χ covering instance of a round assignment:
// every flood at its χ domain, each constraint of chiCons over its
// predFloods, and weakly-hard window floors on the floods they cover.
// Everything goes into ci's own storage, every flood list into one flat
// buffer, so refilling a consumer's warm scratch allocates nothing.
//
// Per-flood tables alias the normalize-time caches: the deficit column
// is flood-independent and the cost column depends only on width, so one
// solve's assignments share the same few read-only slices instead of
// allocating O(floods × MaxNTX) per assignment. The χ covering search
// minimizes the objective's scalarization of bus reservations: slot
// durations under ObjectiveMakespan, exact flood charges under
// ObjectiveEnergy (both columns are increasing in χ, which the covering
// solver requires).
func (p *Problem) fillChi(ci *chiInstance, assign []int, rounds int) {
	nMsgs := len(p.msgs)
	nFloods := nMsgs + rounds
	costTab := p.costByWidth
	if p.Objective == ObjectiveEnergy {
		costTab = p.chargeByWidth
	}
	ci.n, ci.upper = nFloods, p.MaxNTX
	ci.lower = reuse(ci.lower, nFloods)
	ci.def = reuse(ci.def, nFloods)
	ci.cost = reuse(ci.cost, nFloods)
	ci.cons = reuse(ci.cons, len(p.chiCons))
	ci.roundMarks = reuse(ci.roundMarks, rounds)
	// A flood list holds a constraint's messages and at most as many
	// beacons, so the flat buffer never grows mid-fill.
	size := 0
	for i := range p.chiCons {
		size += 2 * len(p.chiCons[i].msgs)
	}
	ci.floods = reuse(ci.floods, size)
	beaconCost := costTab[p.Params.BeaconWidth]
	for f := 0; f < nFloods; f++ {
		ci.lower[f] = p.MinNTX
		ci.def[f] = p.defCol
		if f < nMsgs {
			ci.cost[f] = costTab[p.msgs[f].Width]
		} else {
			ci.cost[f] = beaconCost
		}
	}
	flat := ci.floods[:0]
	for i, c := range p.chiCons {
		start := len(flat)
		flat = predFloods(flat, ci.roundMarks, c.msgs, assign, nMsgs)
		floods := flat[start:len(flat):len(flat)]
		// Window bound: every predecessor flood's guarantee window must
		// cover the requirement's (the ⊕ window is the minimum over
		// predecessors, and eq. 10 needs it >= F.Window).
		for _, f := range floods {
			ci.lower[f] = max(ci.lower[f], c.floor)
		}
		ci.cons[i] = chiConstraint{task: c.task, floods: floods, budget: c.budget}
	}
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

// placeTemplate is one search consumer's timing problem (DESIGN §16).
// Only the rounds, their durations and the (4c) edges depend on the
// assignment, so the fixed part — the task activities (IDs 0..T−1), the
// (4a) precedences, the deadlines and the release times — is built on
// the consumer's first placement and marked. Each placement adds its
// round activities (IDs T..T+R−1), the (4b) and (4c) edges, the
// task×round disjunctions in task-major order and the makespan bound on
// top, and search rolls them back before it returns. The branch and
// bound cannot tell this from a build from scratch: it reads only STN
// distances, which are the unique least solution whatever the insertion
// order, and the disjunctions, which keep their order. A fixed part
// that its deadlines make inconsistent stays so across rollbacks, and
// every placement fails at the root, as it does from scratch. The zero
// value builds on first use; a template serves one Problem and one
// goroutine.
type placeTemplate struct {
	prob  *solver.Problem
	fixed int      // the solver mark after the fixed part
	dur   []int64  // the placement's round durations, eq. (3)
	names []string // round activity names, extended on first use
}

// build adds the fixed part to a new timing problem and marks it.
func (t *placeTemplate) build(p *Problem) {
	prob := solver.NewProblem(1)
	// Task i is activity i: TaskIDs are dense indices.
	for i := range p.tasks {
		prob.AddActivity(p.tasks[i].Name, p.tasks[i].WCET)
	}
	// (4a) task precedence.
	for i, succs := range p.succs {
		for _, s := range succs {
			prob.Precede(solver.ActID(i), solver.ActID(s))
		}
	}
	// Task-level deadlines and release times (ζ constraints).
	for id, d := range p.Deadlines {
		prob.Deadline(solver.ActID(id), d)
	}
	for id, rel := range p.ReleaseTimes {
		prob.Release(solver.ActID(id), rel)
	}
	t.prob, t.fixed = prob, prob.Mark()
}

// roundName returns round r's activity name.
func (t *placeTemplate) roundName(r int) string {
	for len(t.names) <= r {
		t.names = append(t.names, "round"+strconv.Itoa(len(t.names)))
	}
	return t.names[r]
}

// search adds the placement of assign, with round durations dur, to the
// fixed part, runs the timing search under the makespan cap eff (-1 for
// none), and rolls the placement back on every return.
func (t *placeTemplate) search(ctx context.Context, p *Problem, assign []int, dur []int64, eff int64) (solver.Result, error) {
	if t.prob == nil {
		t.build(p)
	}
	prob := t.prob
	defer prob.Reset(t.fixed)
	nTasks, rounds := len(p.tasks), len(dur)
	round := func(r int) solver.ActID { return solver.ActID(nTasks + r) }
	for r, d := range dur {
		prob.AddActivity(t.roundName(r), d)
	}
	// (4b) rounds totally ordered.
	for r := 1; r < rounds; r++ {
		prob.Precede(round(r-1), round(r))
	}
	// (4c) producers before the round; consumers after.
	for _, m := range p.msgs {
		r := round(assign[m.ID])
		prob.Precede(solver.ActID(m.Source), r)
		for _, c := range m.Dests {
			prob.Precede(r, solver.ActID(c))
		}
	}
	// (5) tasks never overlap communication.
	for a := 0; a < nTasks; a++ {
		for r := 0; r < rounds; r++ {
			prob.Disjoint(solver.ActID(a), round(r))
		}
	}
	if eff >= 0 {
		prob.MakespanBound(eff)
	}
	if p.GreedyPlacement {
		return prob.Greedy()
	}
	return prob.MinimizeContext(ctx, p.SolverNodes)
}

// place runs the exact timing search for fixed (l, χ) on the consumer's
// template and, when it finds a placement, assembles the Schedule; a
// placement that loses allocates nothing. bound, when >= 0, is the
// incumbent's scalar under the active objective — a makespan under
// ObjectiveMakespan (applied directly via solver.MakespanBound), an
// energy in pC under ObjectiveEnergy (translated into a derived makespan
// cap below) — so the branch-and-bound is cut off by schedules already
// found for other assignments; a search the bound renders infeasible
// returns errBoundPruned. Problem.MakespanCap, the hard feasibility cap
// the Pareto sweep constrains with, is applied on top. When the node
// budget truncates a search under the *incumbent-derived* bound (ErrBudget,
// or a schedule with Optimal = false), the search is redone without it:
// the bound value depends on which worker found the incumbent first, and
// a truncated result must not, or parallel runs would stop being
// reproducible (MakespanCap is part of the problem, not a racing
// artifact, so the redo keeps it). A canceled search is never redone;
// its incumbent (if any) is returned as a non-optimal schedule.
func (p *Problem) place(ctx context.Context, tpl *placeTemplate, assign, chi []int, rounds int, bound int64) (*Schedule, error) {
	msgs := p.msgs
	nMsgs := len(msgs)

	// Round durations per eq. (3): beacon term + slot terms.
	tpl.dur = reuse(tpl.dur, rounds)
	roundDur := tpl.dur
	for r := 0; r < rounds; r++ {
		roundDur[r] = p.Params.BeaconDuration(chi[nMsgs+r], p.Diameter)
	}
	for _, m := range msgs {
		roundDur[assign[m.ID]] += p.Params.SlotDuration(chi[m.ID], m.Width, p.Diameter)
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

	res, err := tpl.search(ctx, p, assign, roundDur, eff)
	if p.GreedyPlacement {
		if errors.Is(err, solver.ErrBounded) {
			return nil, errBoundPruned
		}
	} else {
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
			// MakespanCap, being deterministic, stays via eff. search
			// has already rolled the bounded placement back.
			return p.place(ctx, tpl, assign, chi, rounds, -1)
		}
	}
	if errors.Is(err, solver.ErrCanceled) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("core: timing search failed: %w", err)
	}
	return p.assemble(res, assign, chi, roundDur), nil
}

// assemble builds the Schedule of a placement with round durations dur.
// Each round's slots are in message order, all from one backing array
// and capped so that an append cannot spill into the next round's; a
// round without slots keeps Slots == nil, and a schedule without rounds
// Rounds == nil.
func (p *Problem) assemble(res solver.Result, assign, chi []int, dur []int64) *Schedule {
	msgs := p.msgs
	nMsgs, nTasks := len(msgs), len(p.tasks)
	sched := &Schedule{
		Mode:   p.Mode,
		Tasks:  make(map[dag.TaskID]TaskTime, nTasks),
		Assign: append([]int(nil), assign...),
	}
	for i := range p.tasks {
		t := &p.tasks[i]
		st := res.Starts[i]
		sched.Tasks[t.ID] = TaskTime{Task: t.ID, Start: st, Finish: st + t.WCET}
	}
	if len(dur) > 0 {
		sched.Rounds = make([]Round, len(dur))
		slots := make([]Slot, 0, nMsgs)
		for r := range sched.Rounds {
			lo := len(slots)
			for _, m := range msgs {
				if assign[m.ID] == r {
					slots = append(slots, Slot{
						Msg: m.ID, NTX: chi[m.ID], Width: m.Width,
						Duration: p.Params.SlotDuration(chi[m.ID], m.Width, p.Diameter),
					})
				}
			}
			var rs []Slot
			if hi := len(slots); hi > lo {
				rs = slots[lo:hi:hi]
			}
			sched.Rounds[r] = Round{
				Index:     r,
				Start:     res.Starts[nTasks+r],
				Duration:  dur[r],
				BeaconNTX: chi[nMsgs+r],
				Slots:     rs,
			}
			sched.BusTime += dur[r]
		}
	}
	sched.Makespan = res.Makespan
	sched.Optimal = res.Optimal
	sched.SolverNodes = res.Nodes
	sched.EnergyPC = p.scheduleEnergyPC(sched)
	return sched
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
