package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file solves the χ-assignment subproblem: given a round assignment
// l, pick the retransmission parameter N_TX for every flood (message
// slots and round beacons) so that every task-level constraint holds,
// minimizing the total reserved bus time. Both paradigms reduce to the
// same covering structure:
//
//   - soft (eq. 6):  Π_{x∈pred(τ)} λ_s(χ(x)) >= F_s(τ)
//     ⇔ Σ_{x∈pred(τ)} −log λ_s(χ(x)) <= −log F_s(τ)
//   - weakly hard (eq. 10 via ⊕): Σ_{x∈pred(τ)} misses(λ_WH(χ(x)))
//     <= F_WH(τ).Misses, plus per-flood window lower bounds on χ.
//
// Each flood has a non-increasing per-level "deficit" and an increasing
// per-level cost; each constrained task imposes a budget on the sum of
// deficits over its predecessor floods. The feasible χ vectors form an
// upward-closed set (statistics are monotone), searched exactly by branch
// and bound on small instances and greedily otherwise.

// chiInstance is the covering problem over floods 0..n-1. A search
// consumer keeps one as its χ scratch: Problem.fillChi refills it in
// place on every memo miss, and the searches take their working arrays
// from buf, so a miss on a warm consumer allocates only the vector that
// solve returns.
type chiInstance struct {
	n     int
	upper int
	lower []int       // per-flood minimum χ (window bounds etc.), >= 1
	def   [][]float64 // def[f][i] = deficit of flood f at χ = i+1, non-increasing
	cost  [][]int64   // cost[f][i] = reserved duration at χ = i+1, increasing
	cons  []chiConstraint
	// floods holds every constraint's flood list back to back, and
	// roundMarks is predFloods' per-round mark (see fillChi).
	floods     []int
	roundMarks []bool
	buf        chiBuffers
}

// chiBuffers are the working arrays of the χ searches, reused across
// the solves of one instance value (see reuse). solveExact returns best
// and solveGreedy greedy, so their results are valid only until the
// instance's next solve; solve copies them out.
type chiBuffers struct {
	chi, best, greedy, adjAt, adj, order, lvAt, lvs []int
	seen, assigned                                  []bool
	minRemCost                                      []int64
	sums                                            []float64
}

// reuse returns buf resized to n elements, keeping its storage when it
// holds n. The elements are stale: callers overwrite or clear them.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

type chiConstraint struct {
	task   string // for error messages
	floods []int  // distinct flood indices
	budget float64
}

const chiEps = 1e-9

// chiResumTol is the relative distance from a constraint's threshold
// within which solveExact re-sums an incrementally kept deficit sum. It
// is ~100× the rounding an incremental soft-mode sum can accumulate;
// weakly-hard sums are integers and exact.
const chiResumTol = 1e-12

// chiNodeBudget caps the exact χ search. Past it the search returns its
// incumbent — at worst the greedy seed — so the scheduler's worst case
// stays polynomial; solve then reports the vector as not exact.
const chiNodeBudget = 300000

// solve picks exact or greedy search. The exact search runs when the
// number of floods that actually appear in constraints is small
// (unconstrained floods are pinned to their lower bounds and never
// branched on); both return the chosen χ per flood. exact reports a
// proven cost-minimal vector: false when the greedy optimizer ran or
// the exact search hit chiNodeBudget. The vector is a copy, not the
// instance's buffer: memo entries are shared and must stay immutable.
func (ci *chiInstance) solve(forceGreedy bool) (chi []int, exact bool, err error) {
	if err := ci.checkFeasibleAtUpper(); err != nil {
		return nil, false, err
	}
	if !forceGreedy && ci.numConstrained() <= exactChiFloodLimit {
		chi, nodes, err := ci.solveExact()
		return slices.Clone(chi), nodes <= chiNodeBudget, err
	}
	chi, err = ci.solveGreedy()
	return slices.Clone(chi), false, err
}

// chiMemo is the per-solve χ memo: one solved entry per distinct χ
// instance, keyed by Problem.chiKey (see Problem.chiMemo).
type chiMemo struct {
	mu sync.Mutex
	m  map[string]chiMemoEntry
}

// chiMemoEntry is one solved χ instance: solve's vector and exact flag,
// or its error. Entries are immutable after store; place only reads chi,
// so sharing the slice across assignments is safe.
type chiMemoEntry struct {
	chi   []int
	exact bool
	err   error
}

// get returns the entry stored under key, if any. A hit allocates
// nothing: the map index by string(key) does not copy the key.
func (m *chiMemo) get(key []byte) (chiMemoEntry, bool) {
	m.mu.Lock()
	ent, ok := m.m[string(key)]
	m.mu.Unlock()
	return ent, ok
}

// put stores ent under key. Everything in an instance is fixed for the
// solve or follows from its key (see Problem.chiKey), and solve is
// deterministic, so an entry is exactly what solving the instance again
// would return. Parallel workers that miss on the same key both solve it
// and store equal entries.
func (m *chiMemo) put(key []byte, ent chiMemoEntry) {
	m.mu.Lock()
	m.m[string(key)] = ent
	m.mu.Unlock()
}

// solveEntry solves ci into a memo entry.
func (ci *chiInstance) solveEntry(forceGreedy bool) chiMemoEntry {
	var ent chiMemoEntry
	ent.chi, ent.exact, ent.err = ci.solve(forceGreedy)
	return ent
}

// numConstrained counts floods referenced by at least one constraint.
func (ci *chiInstance) numConstrained() int {
	ci.buf.seen = reuse(ci.buf.seen, ci.n)
	seen := ci.buf.seen
	clear(seen)
	cnt := 0
	for _, c := range ci.cons {
		for _, f := range c.floods {
			if !seen[f] {
				seen[f] = true
				cnt++
			}
		}
	}
	return cnt
}

// checkFeasibleAtUpper verifies the instance is satisfiable with every
// flood at MaxNTX — if not, no χ vector works and the caller reports
// ErrUnsat with the violated task.
func (ci *chiInstance) checkFeasibleAtUpper() error {
	for f := 0; f < ci.n; f++ {
		if ci.lower[f] > ci.upper {
			return fmt.Errorf("%w: flood %d needs χ >= %d but MaxNTX is %d",
				ErrUnsat, f, ci.lower[f], ci.upper)
		}
	}
	for _, c := range ci.cons {
		sum := 0.0
		for _, f := range c.floods {
			sum += ci.def[f][ci.upper-1]
		}
		if sum > c.budget+chiEps {
			return fmt.Errorf("%w: task %s unreachable even at MaxNTX (deficit %.4g > budget %.4g)",
				ErrUnsat, c.task, sum, c.budget)
		}
	}
	return nil
}

// violated returns the index of a violated constraint under chi, or -1.
func (ci *chiInstance) violated(chi []int) int {
	for i, c := range ci.cons {
		sum := 0.0
		for _, f := range c.floods {
			sum += ci.def[f][chi[f]-1]
		}
		if sum > c.budget+chiEps {
			return i
		}
	}
	return -1
}

// totalCost sums the per-flood costs.
func (ci *chiInstance) totalCost(chi []int) int64 {
	var t int64
	for f, v := range chi {
		t += ci.cost[f][v-1]
	}
	return t
}

// solveGreedy starts every flood at its lower bound and repeatedly bumps
// the flood with the best deficit-reduction per cost among a violated
// constraint's floods. It returns the instance's greedy buffer.
func (ci *chiInstance) solveGreedy() ([]int, error) {
	ci.buf.greedy = reuse(ci.buf.greedy, ci.n)
	chi := ci.buf.greedy
	copy(chi, ci.lower)
	for {
		vi := ci.violated(chi)
		if vi < 0 {
			return chi, nil
		}
		c := ci.cons[vi]
		bestF, bestScore := -1, 0.0
		for _, f := range c.floods {
			if chi[f] >= ci.upper {
				continue
			}
			drop := ci.def[f][chi[f]-1] - ci.def[f][chi[f]]
			inc := float64(ci.cost[f][chi[f]] - ci.cost[f][chi[f]-1])
			if inc <= 0 {
				inc = 1
			}
			score := drop / inc
			if bestF < 0 || score > bestScore {
				bestF, bestScore = f, score
			}
		}
		if bestF < 0 {
			// Cannot raise anything further; checkFeasibleAtUpper rules
			// this out unless deficits are flat, in which case the
			// budget is genuinely unreachable.
			return nil, fmt.Errorf("%w: task %s (greedy dead end)", ErrUnsat, c.task)
		}
		chi[bestF]++
	}
}

// solveExact is a branch-and-bound over χ vectors minimizing total cost.
// Floods outside every constraint are pinned to their lower bounds; for
// branching floods only Pareto-optimal levels are considered (a level
// whose deficit equals a cheaper level's is pure cost); the incumbent is
// seeded with the greedy solution so the cost bound prunes from the
// start. The bound combines committed cost with remaining lower-bound
// costs, and a per-constraint feasibility prune assumes unassigned
// floods go to MaxNTX.
//
// Each constraint's optimistic deficit sum is kept incrementally through
// a flood→constraint adjacency: fixing a flood changes only its own
// constraints, so only those are re-checked, and a leaf is feasible
// once its last flood's constraints pass. A child that fails the cost
// bound is counted without a call, together with its costlier siblings.
// The tree, its visiting order and the node count are those of re-summing
// every constraint at every node; an incremental sum that lands within
// rounding distance of the threshold is re-summed in flood-list order so
// the soft-mode (float) decisions match too. It returns the nodes visited
// and the instance's best buffer.
func (ci *chiInstance) solveExact() ([]int, int, error) {
	b := &ci.buf
	b.chi = reuse(b.chi, ci.n)
	chi := b.chi
	copy(chi, ci.lower)
	// adj[adjAt[f]:adjAt[f+1]] lists the constraints containing flood f.
	// After the prefix sum adjAt[f] is the end of f's range; filling the
	// range from its end leaves adjAt[f] at its start.
	b.adjAt = reuse(b.adjAt, ci.n+1)
	adjAt := b.adjAt
	clear(adjAt)
	for _, c := range ci.cons {
		for _, f := range c.floods {
			adjAt[f]++
		}
	}
	for f := 1; f <= ci.n; f++ {
		adjAt[f] += adjAt[f-1]
	}
	b.adj = reuse(b.adj, adjAt[ci.n])
	adj := b.adj
	for c := len(ci.cons) - 1; c >= 0; c-- {
		for _, f := range ci.cons[c].floods {
			adjAt[f]--
			adj[adjAt[f]] = c
		}
	}
	// Branch order: constrained floods only, order[i] with its Pareto
	// level set lvs[lvAt[i]:lvAt[i+1]]. assigned[f] reports whether
	// flood f's level is final in the current partial assignment.
	b.order = reuse(b.order, ci.n)
	b.lvAt = reuse(b.lvAt, ci.n+1)
	b.lvs = reuse(b.lvs, ci.n*ci.upper)
	b.assigned = reuse(b.assigned, ci.n)
	order, lvAt, lvs, assigned := b.order[:0], b.lvAt[:1], b.lvs[:0], b.assigned
	lvAt[0] = 0
	clear(assigned)
	for f := 0; f < ci.n; f++ {
		if adjAt[f+1] == adjAt[f] {
			assigned[f] = true
			continue
		}
		order = append(order, f)
		lvs = append(lvs, ci.lower[f])
		for v := ci.lower[f] + 1; v <= ci.upper; v++ {
			if ci.def[f][v-1] < ci.def[f][lvs[len(lvs)-1]-1]-chiEps {
				lvs = append(lvs, v)
			}
		}
		lvAt = append(lvAt, len(lvs))
	}
	b.best = reuse(b.best, ci.n)
	best := b.best
	bestCost := int64(-1)
	// Seed with greedy: any feasible incumbent makes the cost bound
	// active immediately.
	if g, err := ci.solveGreedy(); err == nil {
		copy(best, g)
		bestCost = ci.totalCost(g)
	}
	// pinnedCost: cost of all non-branching floods at lower bound.
	var pinnedCost int64
	for f := 0; f < ci.n; f++ {
		if assigned[f] {
			pinnedCost += ci.cost[f][ci.lower[f]-1]
		}
	}
	// minRemCost[i] = Σ over order[i:] of cost at lower bound.
	b.minRemCost = reuse(b.minRemCost, len(order)+1)
	minRemCost := b.minRemCost
	minRemCost[len(order)] = 0
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		minRemCost[i] = minRemCost[i+1] + ci.cost[f][ci.lower[f]-1]
	}
	// sum[c] is constraint c's optimistic deficit sum, and
	// saved[adjAt[f]:adjAt[f+1]] holds f's constraint sums from before f
	// was fixed, restored on the way back up.
	b.sums = reuse(b.sums, len(ci.cons)+len(adj))
	sum, saved := b.sums[:len(ci.cons)], b.sums[len(ci.cons):]
	feasible := true
	for c := range ci.cons {
		sum[c] = ci.optimisticSum(c, chi, assigned)
		feasible = feasible && !(sum[c] > ci.cons[c].budget+chiEps)
	}
	// The search is exact while chiNodeBudget lasts; beyond it the
	// incumbent (at worst the greedy solution) is returned.
	nodes := 1
	var rec func(i int, committed int64)
	rec = func(i int, committed int64) {
		if i == len(order) {
			bestCost = committed
			copy(best, chi)
			return
		}
		f := order[i]
		cs, base := adj[adjAt[f]:adjAt[f+1]], saved[adjAt[f]:adjAt[f+1]]
		for j, c := range cs {
			base[j] = sum[c]
		}
		assigned[f] = true
		lv := lvs[lvAt[i]:lvAt[i+1]]
	sibling:
		for k, v := range lv {
			nodes++
			next := committed + ci.cost[f][v-1]
			if nodes > chiNodeBudget || (bestCost >= 0 && next+minRemCost[i+1] >= bestCost) {
				// Levels ascend in cost, so every later sibling is cut
				// the same way, one node each.
				nodes += len(lv) - k - 1
				break
			}
			chi[f] = v
			d := ci.def[f][v-1] - ci.def[f][ci.upper-1]
			for j, c := range cs {
				s, thr := base[j]+d, ci.cons[c].budget+chiEps
				sum[c] = s
				if math.Abs(s-thr) <= chiResumTol*(1+math.Abs(thr)) {
					s = ci.optimisticSum(c, chi, assigned)
				}
				if s > thr {
					continue sibling
				}
			}
			rec(i+1, next)
		}
		for j, c := range cs {
			sum[c] = base[j]
		}
		chi[f] = ci.lower[f]
		assigned[f] = false
	}
	if feasible && (bestCost < 0 || pinnedCost+minRemCost[0] < bestCost) {
		rec(0, pinnedCost)
	}
	if bestCost < 0 {
		return nil, nodes, fmt.Errorf("%w: exact χ search found no assignment", ErrUnsat)
	}
	return best, nodes, nil
}

// optimisticSum is constraint c's deficit sum in flood-list order with
// unassigned floods at MaxNTX, the bound of solveExact's feasibility
// prune.
func (ci *chiInstance) optimisticSum(c int, chi []int, assigned []bool) float64 {
	s := 0.0
	for _, f := range ci.cons[c].floods {
		if assigned[f] {
			s += ci.def[f][chi[f]-1]
		} else {
			s += ci.def[f][ci.upper-1]
		}
	}
	return s
}
