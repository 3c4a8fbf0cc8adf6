// Package stn implements simple temporal networks: systems of difference
// constraints s(v) >= s(u) + w over integer time variables. They are the
// decidable fragment underlying the paper's scheduling conditions (eq. 4
// and the makespan objective are difference constraints; the non-overlap
// condition eq. 5 is a disjunction of two difference constraints, handled
// by the branch-and-bound layer in internal/solver).
//
// The engine is incremental, the way real difference-logic theory solvers
// (the role Z3 plays in the paper's implementation) are built: the least
// solution — the earliest feasible time of every variable — is maintained
// persistently in a distance array. AddMin propagates only the delta of
// the new constraint through per-variable adjacency lists with a work
// queue (SPFA-style longest-path relaxation), so the cost of one
// constraint is O(affected subgraph), not O(V·E). Every distance change
// is recorded on an undo trail, so the Mark/Reset pair a branch-and-bound
// search leans on restores the exact previous state in O(changes since
// the mark). Positive cycles (inconsistent systems) are detected during
// propagation: an increase that flows back into the source of the
// constraint being added closes a strictly-improving cycle, and a
// per-variable relaxation path-length counter bounds the propagation
// defensively.
//
// Adjacency lists keep arcs contiguous per variable (the propagation
// loop is a sequential scan), with their initial capacity carved from a
// preallocated arena so that building a paper-scale instance performs
// only a handful of allocations. Carving only moves forward; a variable
// that Reset rolled back leaves its list behind, and the next NewVar at
// that ID takes it over instead of carving again. So a branch-and-bound
// search that pushes and pops constraints at a stable depth allocates
// nothing at all, and neither does a caller that re-creates the same
// variables above a Mark after every Reset.
//
// Reads are zero-allocation: Dist returns one maintained distance,
// EarliestInto snapshots into a caller-owned buffer, and Consistent is
// O(1). The batch Earliest remains as an allocating snapshot wrapper for
// callers that want the seed API.
package stn

import (
	"errors"
	"fmt"
)

// VarID identifies a time variable. Zero is the distinguished origin
// variable, fixed at time 0.
type VarID int

// Zero is the origin variable present in every network.
const Zero VarID = 0

// ErrInconsistent is returned by Earliest when the constraints admit no
// solution (a positive cycle exists in the precedence graph).
var ErrInconsistent = errors.New("stn: inconsistent temporal constraints")

// MaxWeight bounds the magnitude of a single constraint weight. AddMin
// saturates weights beyond it instead of letting later distance sums wrap
// int64: with |w| <= 2^52 and distances capped at distCap = 2^60, no sum
// computed by the engine can overflow. 2^52 µs is over a century, far
// beyond any WCET or deadline a schedule can mention.
const MaxWeight = int64(1) << 52

// distCap is the divergence guard: a distance reaching it is declared
// inconsistent. A genuine least solution stays far below it (it would
// take ~2^8 chained MaxWeight constraints to approach), so in practice
// only a positive cycle — whose relaxations grow without bound — or a
// pathological saturated-weight chain trips it; both are correctly
// reported as having no usable schedule.
const distCap = int64(1) << 60

// Arena sizing: Zero accumulates an arc per variable (the s(v) >= 0
// edges) plus releases/deadlines/bounds, so it gets a large initial
// capacity; ordinary variables start with room for a typical fan-out.
// Variables that outgrow their carve fall back to regular slice growth.
const (
	zeroChunk = 64
	varChunk  = 8
	arenaSize = zeroChunk + 24*varChunk
)

// arc is one outgoing constraint edge: s(v) >= s(from) + w, stored in the
// adjacency list of "from".
type arc struct {
	v VarID
	w int64
}

// varState is the per-variable hot state: the maintained earliest time
// plus the propagation scratch (queue membership and relaxation path
// length for the cycle guard).
type varState struct {
	dist int64
	plen int32
	inQ  bool
}

// conRec records one constraint on the undo trail: which adjacency list
// grew, where the distance-change trail stood before its propagation, and
// whether it is the defining s(v) >= 0 edge of a NewVar (in which case
// Reset rolls the variable itself back too).
type conRec struct {
	u        VarID
	trailLen int
	newVar   bool
}

// distChange is one undo-trail entry: v's distance before the change.
type distChange struct {
	v   VarID
	old int64
}

// STN is a growable system of difference constraints. Constraints are
// append-only; Mark and Reset give the cheap trail semantics a
// branch-and-bound search needs, and — unlike the seed implementation —
// Reset across a NewVar properly rolls the variable back instead of
// leaving it unbounded.
type STN struct {
	names []string
	out   [][]arc
	vs    []varState
	cons  []conRec
	trail []distChange
	queue []VarID // propagation work queue, reused across AddMin calls
	arena []arc   // backing store carved into initial adjacency capacities
	used  int     // arena prefix already carved
	// broken is the index into cons of the constraint that made the
	// system inconsistent, or -1. While broken, distances are stale and
	// AddMin merely records constraints for undo; Reset below the
	// breaking constraint restores full consistency from the trail.
	broken int
}

// New returns a network containing only the Zero origin variable.
// Capacities are preallocated for a paper-scale instance so that
// building and solving one performs only a handful of allocations.
func New() *STN {
	s := &STN{
		names:  make([]string, 1, 24),
		out:    make([][]arc, 1, 24),
		vs:     make([]varState, 1, 24),
		cons:   make([]conRec, 0, 128),
		trail:  make([]distChange, 0, 256),
		queue:  make([]VarID, 0, 24),
		arena:  make([]arc, arenaSize),
		broken: -1,
	}
	s.names[0] = "zero"
	s.out[0] = s.carve(zeroChunk)
	return s
}

// carve hands out a zero-length arc slice with capacity n from the arena,
// falling back to a fresh allocation once the arena is exhausted. The
// three-index slice pins the capacity so appends can never spill into a
// neighbor's carve.
func (s *STN) carve(n int) []arc {
	if s.used+n <= len(s.arena) {
		c := s.arena[s.used : s.used : s.used+n]
		s.used += n
		return c
	}
	return make([]arc, 0, n)
}

// NewVar adds a time variable constrained to s(v) >= 0 and returns its
// ID. The adjacency list of a variable that Reset rolled back at this ID
// is reused (Reset leaves it empty), so re-creating variables allocates
// nothing once their lists have grown.
func (s *STN) NewVar(name string) VarID {
	id := VarID(len(s.vs))
	s.names = append(s.names, name)
	if len(s.out) < cap(s.out) && s.out[:id+1][id] != nil {
		s.out = s.out[:id+1]
		s.out[id] = s.out[id][:0]
	} else {
		s.out = append(s.out, s.carve(varChunk))
	}
	s.vs = append(s.vs, varState{})
	s.cons = append(s.cons, conRec{u: Zero, trailLen: len(s.trail), newVar: true})
	s.out[Zero] = append(s.out[Zero], arc{v: id, w: 0})
	// d[id] = 0 = d[Zero] + 0 already holds; no propagation needed.
	return id
}

// NumVars returns the variable count including Zero.
func (s *STN) NumVars() int { return len(s.vs) }

// Name returns the variable's name.
func (s *STN) Name(v VarID) string {
	if v < 0 || int(v) >= len(s.names) {
		return fmt.Sprintf("var%d", v)
	}
	return s.names[v]
}

// AddMin imposes s(v) >= s(u) + w and propagates its consequences through
// the maintained distances. Weights outside [-MaxWeight, MaxWeight] are
// saturated (see MaxWeight). If the constraint closes a positive cycle
// the network becomes inconsistent: Consistent turns false and stays
// false until a Reset below this constraint.
func (s *STN) AddMin(v, u VarID, w int64) {
	s.checkVar(u)
	s.checkVar(v)
	if w > MaxWeight {
		w = MaxWeight
	} else if w < -MaxWeight {
		w = -MaxWeight
	}
	s.cons = append(s.cons, conRec{u: u, trailLen: len(s.trail)})
	s.out[u] = append(s.out[u], arc{v: v, w: w})
	if s.broken >= 0 {
		return // already inconsistent; recorded for undo only
	}
	s.propagate(u, v, w)
}

// AddMax imposes s(v) <= s(u) + w (equivalently s(u) >= s(v) − w).
func (s *STN) AddMax(v, u VarID, w int64) { s.AddMin(u, v, -w) }

func (s *STN) checkVar(v VarID) {
	if v < 0 || int(v) >= len(s.vs) {
		panic(fmt.Sprintf("stn: unknown variable %d", v))
	}
}

// propagate relaxes the consequences of the just-added edge src -> v with
// weight w through the affected subgraph. Invariant on entry: dist is the
// least solution of all constraints except the new edge. On consistent
// exit dist is the least solution including it; on a positive cycle the
// network is flagged broken (distances then stale until Reset).
//
// Cycle detection is twofold. The exact check: the only new edge is
// src -> v, so any positive cycle the system now contains passes through
// src via that edge; if the propagation ever wants to *increase*
// dist[src], the increase has flowed v -> … -> src around a
// strictly-improving cycle, which is exactly a positive cycle. The
// defensive check: plen counts the relaxation path length (in edges) from
// src; a strictly-improving path longer than the variable count must
// revisit a variable, which again closes a positive cycle. The second
// check also bounds the work of a single propagation.
func (s *STN) propagate(src, v VarID, w int64) {
	vs := s.vs
	nd := vs[src].dist + w
	if nd <= vs[v].dist {
		return // constraint already satisfied: nothing to do
	}
	if v == src || nd >= distCap {
		s.markBroken(0)
		return
	}
	start := len(s.trail)
	s.trail = append(s.trail, distChange{v: v, old: vs[v].dist})
	vs[v].dist = nd
	vs[v].plen = 1
	vs[v].inQ = true
	s.queue = append(s.queue[:0], v)
	maxLen := int32(len(vs))
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		vs[x].inQ = false
		dx := vs[x].dist
		px := vs[x].plen
		for _, a := range s.out[x] {
			nd := dx + a.w
			if nd <= vs[a.v].dist {
				continue
			}
			if a.v == src || nd >= distCap || px >= maxLen {
				s.markBroken(head + 1)
				s.resetScratch(start)
				return
			}
			s.trail = append(s.trail, distChange{v: a.v, old: vs[a.v].dist})
			vs[a.v].dist = nd
			vs[a.v].plen = px + 1
			if !vs[a.v].inQ {
				vs[a.v].inQ = true
				s.queue = append(s.queue, a.v)
			}
		}
	}
	s.resetScratch(start)
}

// markBroken flags the network inconsistent at the constraint currently
// being added and clears queue membership for the unprocessed tail of the
// work queue.
func (s *STN) markBroken(head int) {
	s.broken = len(s.cons) - 1
	for _, x := range s.queue[head:] {
		s.vs[x].inQ = false
	}
}

// resetScratch zeroes the per-variable path lengths touched by the last
// propagation (the touched set is exactly the trail suffix) and empties
// the work queue, leaving the scratch ready for the next AddMin.
func (s *STN) resetScratch(trailStart int) {
	for _, tc := range s.trail[trailStart:] {
		s.vs[tc.v].plen = 0
	}
	s.queue = s.queue[:0]
}

// Mark returns a trail position; Reset(mark) removes every constraint —
// and every variable — added after the corresponding Mark.
func (s *STN) Mark() int { return len(s.cons) }

// Reset rolls the network back to a previous Mark, undoing every
// AddMin/AddMax since in O(changes): recorded distance changes are
// replayed from the undo trail, appended arcs are popped from their
// adjacency lists, and variables created after the mark are removed
// entirely (their IDs become invalid again). A network made inconsistent
// after the mark becomes consistent again, with distances restored
// exactly.
func (s *STN) Reset(mark int) {
	if mark < 0 || mark > len(s.cons) {
		panic(fmt.Sprintf("stn: bad mark %d", mark))
	}
	for i := len(s.cons) - 1; i >= mark; i-- {
		c := s.cons[i]
		for len(s.trail) > c.trailLen {
			tc := s.trail[len(s.trail)-1]
			s.trail = s.trail[:len(s.trail)-1]
			s.vs[tc.v].dist = tc.old
		}
		s.out[c.u] = s.out[c.u][:len(s.out[c.u])-1]
		if c.newVar {
			last := len(s.vs) - 1
			s.names = s.names[:last]
			s.out = s.out[:last]
			s.vs = s.vs[:last]
		}
	}
	s.cons = s.cons[:mark]
	if s.broken >= mark {
		s.broken = -1
	}
}

// Dist returns the maintained earliest time of v — the zero-allocation,
// O(1) read path for the branch-and-bound hot loop. The value is only
// meaningful while Consistent() is true; after an inconsistency it is
// stale until the next Reset below the breaking constraint.
func (s *STN) Dist(v VarID) int64 { return s.vs[v].dist }

// Consistent reports in O(1) whether the system admits any solution.
func (s *STN) Consistent() bool { return s.broken < 0 }

// Earliest returns the least non-negative solution of the constraint
// system — the earliest feasible time of every variable — or
// ErrInconsistent. It is a snapshot wrapper over the maintained distances
// (one allocation for the copy); hot paths use Dist or EarliestInto
// instead.
func (s *STN) Earliest() ([]int64, error) {
	if s.broken >= 0 {
		return nil, ErrInconsistent
	}
	return s.snapshot(make([]int64, len(s.vs))), nil
}

// EarliestInto is Earliest into a caller-owned buffer: it writes the
// current distances into buf (reallocating only when too small) and
// returns the result, so steady-state callers never allocate. The
// returned slice is the caller's copy and reflects the state at call
// time only.
func (s *STN) EarliestInto(buf []int64) ([]int64, error) {
	if s.broken >= 0 {
		return nil, ErrInconsistent
	}
	if cap(buf) < len(s.vs) {
		buf = make([]int64, len(s.vs))
	}
	return s.snapshot(buf[:len(s.vs)]), nil
}

func (s *STN) snapshot(buf []int64) []int64 {
	for i := range buf {
		buf[i] = s.vs[i].dist
	}
	return buf
}
