// Package solver provides an exact disjunctive scheduler on top of the
// simple-temporal-network substrate: activities with fixed durations,
// precedence constraints, release times, deadlines, and pairwise
// non-overlap disjunctions, minimized for makespan by branch and bound.
//
// This is the role Z3/Gurobi play in the paper's implementation: the
// NETDAG feasibility conditions (eq. 4, 5) are difference constraints
// plus binary non-overlap disjunctions, exactly the fragment this solver
// decides. The branch-and-bound search is exact; Greedy provides the
// polynomial heuristic used in the A3 ablation and as a fallback for
// instances beyond the exact solver's budget.
package solver

import (
	"context"
	"errors"
	"fmt"

	"github.com/netdag/netdag/internal/stn"
)

// ActID identifies an activity within a Problem.
type ActID int

// Problem is a disjunctive scheduling instance under construction.
type Problem struct {
	net     *stn.STN
	start   []stn.VarID
	dur     []int64
	end     stn.VarID
	disj    [][2]ActID
	gap     int64
	bounded bool // a MakespanBound was imposed externally
}

// Result is a schedule: start times per activity and the achieved
// makespan.
type Result struct {
	Starts   []int64 // indexed by ActID
	Makespan int64
	Optimal  bool // true when the search proved optimality
	Nodes    int  // branch-and-bound nodes explored
}

// Errors returned by the solver.
var (
	ErrInfeasible = errors.New("solver: no feasible schedule")
	ErrBudget     = errors.New("solver: node budget exhausted before any feasible schedule")
	// ErrBounded is returned instead of ErrInfeasible when a MakespanBound
	// was imposed on the instance: the instance might be feasible without
	// the bound, so callers running a bounded search (e.g. branch-and-bound
	// with a shared incumbent) must treat it as a pruning outcome, not as
	// proof of infeasibility.
	ErrBounded = errors.New("solver: no feasible schedule within the imposed makespan bound")
	// ErrCanceled is returned by MinimizeContext when the context expires
	// mid-search. The accompanying Result still carries the incumbent
	// schedule (Makespan >= 0, Optimal = false) when one was found before
	// the cancellation, so deadline-bound callers can use the best-so-far.
	ErrCanceled = errors.New("solver: search canceled")
)

// cancelCheckMask spaces the context polls in the branch-and-bound loop:
// the context is consulted once every cancelCheckMask+1 nodes, keeping the
// check off the per-node hot path while still bounding the reaction time
// to a cancellation by a few hundred STN propagations.
const cancelCheckMask = 0x3f

// NewProblem returns an empty instance. gap is the minimum separation
// inserted between ordered activities (the paper's strict inequalities in
// eq. 4-5 become ">= gap" in integer time; NETDAG uses gap = 1 µs).
func NewProblem(gap int64) *Problem {
	if gap < 0 {
		panic(fmt.Sprintf("solver: negative gap %d", gap))
	}
	p := &Problem{net: stn.New(), gap: gap}
	p.end = p.net.NewVar("makespan")
	return p
}

// AddActivity declares an activity with the given duration and returns
// its ID. Durations must be non-negative.
func (p *Problem) AddActivity(name string, dur int64) ActID {
	if dur < 0 {
		panic(fmt.Sprintf("solver: negative duration %d for %q", dur, name))
	}
	id := ActID(len(p.start))
	v := p.net.NewVar(name)
	p.start = append(p.start, v)
	p.dur = append(p.dur, dur)
	// Makespan covers every activity.
	p.net.AddMin(p.end, v, dur)
	return id
}

// NumActivities returns the activity count.
func (p *Problem) NumActivities() int { return len(p.start) }

// Duration returns the duration of a.
func (p *Problem) Duration(a ActID) int64 { return p.dur[a] }

// Precede imposes start(b) >= start(a) + dur(a) + gap: b strictly after a
// completes.
func (p *Problem) Precede(a, b ActID) {
	p.check(a)
	p.check(b)
	p.precede(a, b)
}

// precede is Precede without the bounds checks: the branch-and-bound
// search and the greedy dispatcher impose transient orderings through it.
func (p *Problem) precede(a, b ActID) {
	p.net.AddMin(p.start[b], p.start[a], p.dur[a]+p.gap)
}

// Release imposes start(a) >= t.
func (p *Problem) Release(a ActID, t int64) {
	p.check(a)
	p.net.AddMin(p.start[a], stn.Zero, t)
}

// Deadline imposes start(a) + dur(a) <= t.
func (p *Problem) Deadline(a ActID, t int64) {
	p.check(a)
	p.net.AddMax(p.start[a], stn.Zero, t-p.dur[a])
}

// MakespanBound imposes makespan <= t, tightening the search a priori.
// Once a bound is imposed, infeasibility is reported as ErrBounded rather
// than ErrInfeasible, since it may be an artifact of the bound.
func (p *Problem) MakespanBound(t int64) {
	p.bounded = true
	p.net.AddMax(p.end, stn.Zero, t)
}

// Disjoint declares that a and b must not overlap in time (in either
// order, separated by gap) — the paper's eq. (5) between a task and a
// communication round.
func (p *Problem) Disjoint(a, b ActID) {
	p.check(a)
	p.check(b)
	if a == b {
		panic("solver: activity cannot be disjoint from itself")
	}
	p.disj = append(p.disj, [2]ActID{a, b})
}

func (p *Problem) check(a ActID) {
	if a < 0 || int(a) >= len(p.start) {
		panic(fmt.Sprintf("solver: unknown activity %d", a))
	}
}

// overlapsNow reports whether a and b overlap (or violate the gap) at
// the STN's currently maintained earliest times. Zero-allocation: it
// reads the incremental engine's distances directly instead of taking a
// snapshot.
func (p *Problem) overlapsNow(a, b ActID) bool {
	sa, sb := p.net.Dist(p.start[a]), p.net.Dist(p.start[b])
	return sa+p.dur[a]+p.gap > sb && sb+p.dur[b]+p.gap > sa
}

// Minimize runs exact branch and bound over the non-overlap disjunctions
// and returns a makespan-minimal schedule. maxNodes bounds the search; if
// a branch had to be abandoned because the budget ran out, the best
// schedule found so far is returned with Optimal = false, or ErrBudget if
// none was found. A search that completes exactly at the budget is still
// optimal. maxNodes <= 0 means unlimited.
func (p *Problem) Minimize(maxNodes int) (Result, error) {
	return p.MinimizeContext(context.Background(), maxNodes)
}

// MinimizeContext is Minimize with cooperative cancellation: the context
// is polled at the search's prune points, and when it expires the search
// unwinds immediately and returns ErrCanceled. The Result accompanying
// ErrCanceled holds the incumbent found so far (Makespan >= 0,
// Optimal = false) or Makespan = -1 when cancellation struck before any
// feasible schedule was reached.
func (p *Problem) MinimizeContext(ctx context.Context, maxNodes int) (Result, error) {
	res := Result{Makespan: -1}
	nodes := 0
	// truncated records that the budget actually cut the search short — a
	// branch was abandoned unexplored. Node count alone cannot tell this
	// apart from a search that finished exactly on budget.
	truncated := false
	canceled := false
	budget := func() bool { return maxNodes > 0 && nodes >= maxNodes }
	net := p.net
	var rec func(from int)
	rec = func(from int) {
		if canceled {
			return
		}
		if nodes&cancelCheckMask == 0 && ctx.Err() != nil {
			canceled = true
			return
		}
		if budget() {
			truncated = true
			return
		}
		nodes++
		if !net.Consistent() {
			return // inconsistent branch (detected incrementally on precede)
		}
		lb := net.Dist(p.end)
		if res.Makespan >= 0 && lb >= res.Makespan {
			return // bound: cannot improve
		}
		// Find a violated disjunction under the earliest schedule. The
		// scan resumes cyclically from the disjunction branched on last:
		// the ordering just imposed rarely disturbs the disjunctions
		// already passed over, so the next violation is usually a near
		// neighbor — but a shifted schedule *can* re-violate an earlier
		// pair, so the scan still wraps around and covers all of p.disj
		// before the node may be declared feasible.
		nd := len(p.disj)
		for k := 0; k < nd; k++ {
			i := from + k
			if i >= nd {
				i -= nd
			}
			a, b := p.disj[i][0], p.disj[i][1]
			if !p.overlapsNow(a, b) {
				continue
			}
			// Branch on the order of a and b. Try the order suggested by
			// the earliest times first (better first incumbent).
			first, second := a, b
			if net.Dist(p.start[b]) < net.Dist(p.start[a]) {
				first, second = b, a
			}
			mark := net.Mark()
			p.precede(first, second)
			rec(i)
			net.Reset(mark)
			if canceled {
				return
			}
			if budget() {
				truncated = true
				return
			}
			mark = net.Mark()
			p.precede(second, first)
			rec(i)
			net.Reset(mark)
			return
		}
		// No violated disjunction: the earliest schedule is feasible, and
		// the bound check above guarantees it improves the incumbent.
		if res.Starts == nil {
			res.Starts = make([]int64, len(p.start))
		}
		for i, v := range p.start {
			res.Starts[i] = net.Dist(v)
		}
		res.Makespan = lb
	}
	rec(0)
	res.Nodes = nodes
	if canceled {
		// The incumbent (if any) rides along with the error so callers
		// under a deadline are not left empty-handed.
		return res, ErrCanceled
	}
	if res.Makespan < 0 {
		if truncated {
			return res, ErrBudget
		}
		if p.bounded {
			return res, ErrBounded
		}
		return res, ErrInfeasible
	}
	res.Optimal = !truncated
	return res, nil
}

// Greedy resolves each violated disjunction in earliest-start order
// (ties: shorter activity first) and returns the resulting feasible
// schedule. It is polynomial and typically near-optimal on LWB-style
// instances where rounds already carry most of the ordering; the A3
// ablation quantifies the gap to Minimize.
func (p *Problem) Greedy() (Result, error) {
	net := p.net
	mark := net.Mark()
	defer net.Reset(mark)
	nodes := 0
	for {
		nodes++
		if !net.Consistent() {
			if p.bounded {
				return Result{Makespan: -1}, ErrBounded
			}
			return Result{Makespan: -1}, ErrInfeasible
		}
		resolved := true
		// Pick the violated disjunction whose earliest involved start is
		// smallest, to mimic chronological dispatching.
		bestIdx, bestKey := -1, int64(0)
		for i, pair := range p.disj {
			if !p.overlapsNow(pair[0], pair[1]) {
				continue
			}
			resolved = false
			key := net.Dist(p.start[pair[0]])
			if k := net.Dist(p.start[pair[1]]); k < key {
				key = k
			}
			if bestIdx < 0 || key < bestKey {
				bestIdx, bestKey = i, key
			}
		}
		if resolved {
			starts := make([]int64, len(p.start))
			for i, v := range p.start {
				starts[i] = net.Dist(v)
			}
			return Result{Starts: starts, Makespan: net.Dist(p.end), Nodes: nodes}, nil
		}
		a, b := p.disj[bestIdx][0], p.disj[bestIdx][1]
		first, second := a, b
		sa, sb := net.Dist(p.start[a]), net.Dist(p.start[b])
		if sb < sa || (sb == sa && p.dur[b] < p.dur[a]) {
			first, second = b, a
		}
		p.precede(first, second)
	}
}
