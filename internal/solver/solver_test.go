package solver

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func TestTwoDisjointActivities(t *testing.T) {
	p := NewProblem(1)
	a := p.AddActivity("a", 10)
	b := p.AddActivity("b", 20)
	p.Disjoint(a, b)
	res, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	// One must follow the other with a 1-tick gap: makespan 31.
	if res.Makespan != 31 {
		t.Errorf("makespan = %d, want 31", res.Makespan)
	}
	if !res.Optimal {
		t.Error("unlimited search must prove optimality")
	}
	sa, sb := res.Starts[a], res.Starts[b]
	if sa < sb {
		if sa+10+1 > sb {
			t.Errorf("activities overlap: a@%d, b@%d", sa, sb)
		}
	} else if sb+20+1 > sa {
		t.Errorf("activities overlap: a@%d, b@%d", sa, sb)
	}
}

func TestPrecedenceChain(t *testing.T) {
	p := NewProblem(1)
	a := p.AddActivity("a", 5)
	b := p.AddActivity("b", 7)
	c := p.AddActivity("c", 3)
	p.Precede(a, b)
	p.Precede(b, c)
	res, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 1 + 7 + 1 + 3 = 17.
	if res.Makespan != 17 {
		t.Errorf("makespan = %d, want 17", res.Makespan)
	}
	if res.Starts[b] != 6 || res.Starts[c] != 14 {
		t.Errorf("starts = %v", res.Starts)
	}
}

func TestReleaseAndDeadline(t *testing.T) {
	p := NewProblem(0)
	a := p.AddActivity("a", 10)
	p.Release(a, 100)
	res, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[a] != 100 || res.Makespan != 110 {
		t.Errorf("release ignored: %+v", res)
	}
	p.Deadline(a, 105)
	if _, err := p.Minimize(0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible deadline not detected: %v", err)
	}
}

func TestParallelismExploited(t *testing.T) {
	// Two independent activities with no disjunction run concurrently.
	p := NewProblem(1)
	a := p.AddActivity("a", 50)
	b := p.AddActivity("b", 60)
	_ = a
	_ = b
	res, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 60 {
		t.Errorf("makespan = %d, want 60 (parallel)", res.Makespan)
	}
}

func TestThreeWayMutualExclusion(t *testing.T) {
	// Three pairwise-disjoint unit tasks serialize: the optimum orders
	// them back to back.
	p := NewProblem(1)
	ids := []ActID{
		p.AddActivity("x", 4),
		p.AddActivity("y", 6),
		p.AddActivity("z", 5),
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			p.Disjoint(ids[i], ids[j])
		}
	}
	res, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 4+6+5+2 {
		t.Errorf("makespan = %d, want 17", res.Makespan)
	}
}

func TestMinimizeBeatsOrEqualsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		p := randomInstance(rng, 6, 4)
		exact, errE := p.Minimize(0)
		greedy, errG := p.Greedy()
		if errE != nil {
			// If the exact solver proves infeasibility, greedy must not
			// find a schedule.
			if errG == nil {
				t.Fatalf("trial %d: exact infeasible but greedy found %v", trial, greedy)
			}
			continue
		}
		if errG == nil && greedy.Makespan < exact.Makespan {
			t.Fatalf("trial %d: greedy %d beat exact %d", trial, greedy.Makespan, exact.Makespan)
		}
		validateSchedule(t, p, exact)
		if errG == nil {
			validateSchedule(t, p, greedy)
		}
	}
}

func TestMinimizeMatchesBruteForceOrder(t *testing.T) {
	// For a fully disjoint set, optimum = sum of durations + gaps
	// regardless of order; check against the analytic optimum.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		p := NewProblem(1)
		n := 4
		var total int64
		var ids []ActID
		for i := 0; i < n; i++ {
			d := int64(rng.Intn(20) + 1)
			total += d
			ids = append(ids, p.AddActivity("t", d))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p.Disjoint(ids[i], ids[j])
			}
		}
		res, err := p.Minimize(0)
		if err != nil {
			t.Fatal(err)
		}
		want := total + int64(n-1)
		if res.Makespan != want {
			t.Errorf("trial %d: makespan %d, want %d", trial, res.Makespan, want)
		}
	}
}

func TestNodeBudget(t *testing.T) {
	p := NewProblem(1)
	var ids []ActID
	for i := 0; i < 8; i++ {
		ids = append(ids, p.AddActivity("t", int64(i+1)))
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			p.Disjoint(ids[i], ids[j])
		}
	}
	res, err := p.Minimize(3)
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatalf("unexpected error: %v", err)
	}
	if err == nil && res.Optimal {
		t.Error("budget-limited search must not claim optimality on this instance")
	}
}

func TestGreedyFeasible(t *testing.T) {
	p := NewProblem(1)
	a := p.AddActivity("a", 10)
	b := p.AddActivity("b", 10)
	c := p.AddActivity("c", 10)
	p.Precede(a, c)
	p.Disjoint(a, b)
	p.Disjoint(b, c)
	res, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	validateSchedule(t, p, res)
}

// TestMinimizeMatchesExhaustiveOrderings cross-checks the branch-and-
// bound optimum against explicit enumeration of all total orders of the
// disjoint activities on small random instances.
func TestMinimizeMatchesExhaustiveOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(2) // 3-4 mutually disjoint activities
		durs := make([]int64, n)
		for i := range durs {
			durs[i] = int64(rng.Intn(20) + 1)
		}
		build := func() (*Problem, []ActID) {
			p := NewProblem(1)
			ids := make([]ActID, n)
			for i := range ids {
				ids[i] = p.AddActivity("t", durs[i])
			}
			// A random release forces interesting alignment.
			p.Release(ids[0], int64(rng.Intn(10)))
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					p.Disjoint(ids[i], ids[j])
				}
			}
			return p, ids
		}
		p, _ := build()
		res, err := p.Minimize(0)
		if err != nil {
			t.Fatal(err)
		}
		// Exhaustive: try every permutation as a chain.
		best := int64(-1)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var permute func(k int)
		permute = func(k int) {
			if k == n {
				q, qids := build()
				for i := 0; i+1 < n; i++ {
					q.Precede(qids[perm[i]], qids[perm[i+1]])
				}
				r, err := q.Minimize(0)
				if err != nil {
					return
				}
				if best < 0 || r.Makespan < best {
					best = r.Makespan
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				permute(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		permute(0)
		if res.Makespan != best {
			t.Errorf("trial %d: B&B %d, exhaustive %d", trial, res.Makespan, best)
		}
	}
}

// validateSchedule re-checks a Result against the instance's disjunctions
// (precedences are enforced by the STN itself, but the disjunctions are
// resolved by search, so validate them independently).
func validateSchedule(t *testing.T, p *Problem, res Result) {
	t.Helper()
	for _, pair := range p.disj {
		a, b := pair[0], pair[1]
		sa, sb := res.Starts[a], res.Starts[b]
		okAB := sa+p.dur[a]+p.gap <= sb
		okBA := sb+p.dur[b]+p.gap <= sa
		if !okAB && !okBA {
			t.Errorf("disjunction %s/%s violated: %d+%d vs %d+%d",
				p.net.Name(p.start[a]), p.net.Name(p.start[b]), sa, p.dur[a], sb, p.dur[b])
		}
	}
	var maxEnd int64
	for i := range res.Starts {
		if e := res.Starts[i] + p.dur[i]; e > maxEnd {
			maxEnd = e
		}
	}
	if maxEnd != res.Makespan {
		t.Errorf("makespan %d does not match schedule end %d", res.Makespan, maxEnd)
	}
}

// randomInstance builds a random DAG of activities with some disjoint
// pairs and occasional deadlines.
func randomInstance(rng *rand.Rand, nAct, nDisj int) *Problem {
	p := NewProblem(1)
	var ids []ActID
	for i := 0; i < nAct; i++ {
		ids = append(ids, p.AddActivity("t", int64(rng.Intn(15)+1)))
	}
	for i := 1; i < nAct; i++ {
		if rng.Float64() < 0.5 {
			p.Precede(ids[rng.Intn(i)], ids[i])
		}
	}
	for k := 0; k < nDisj; k++ {
		i, j := rng.Intn(nAct), rng.Intn(nAct)
		if i != j {
			p.Disjoint(ids[i], ids[j])
		}
	}
	if rng.Float64() < 0.3 {
		p.Deadline(ids[nAct-1], int64(rng.Intn(60)+20))
	}
	return p
}

// TestMinimizeOptimalAtExactBudget pins the boundary semantics of
// maxNodes: a search that finishes using exactly its budget explored
// everything it needed to, so it must still claim optimality. Only an
// actually abandoned branch may clear Optimal.
func TestMinimizeOptimalAtExactBudget(t *testing.T) {
	build := func() (*Problem, []ActID) {
		p := NewProblem(1)
		var ids []ActID
		for i := 0; i < 4; i++ {
			ids = append(ids, p.AddActivity("t", int64(i+1)))
		}
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				p.Disjoint(ids[i], ids[j])
			}
		}
		return p, ids
	}
	ref, _ := build()
	unlimited, err := ref.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if !unlimited.Optimal {
		t.Fatal("unlimited search must be optimal")
	}
	// Re-run the identical instance with the budget set to the exact node
	// count the search needs.
	p, _ := build()
	exact, err := p.Minimize(unlimited.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Nodes != unlimited.Nodes {
		t.Fatalf("budgeted run explored %d nodes, unlimited %d", exact.Nodes, unlimited.Nodes)
	}
	if !exact.Optimal {
		t.Errorf("search completing exactly at its %d-node budget must stay Optimal", unlimited.Nodes)
	}
	if exact.Makespan != unlimited.Makespan {
		t.Errorf("budgeted makespan %d != unlimited %d", exact.Makespan, unlimited.Makespan)
	}
	// One node fewer must actually truncate.
	p2, _ := build()
	short, err := p2.Minimize(unlimited.Nodes - 1)
	if err == nil && short.Optimal {
		t.Error("search truncated one node early must not claim optimality")
	}
}

// TestMakespanBoundInfeasibleIsErrBounded distinguishes bound-induced
// infeasibility from genuine infeasibility: incumbent-pruned searches
// need to know the instance might still be feasible without the bound.
func TestMakespanBoundInfeasibleIsErrBounded(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(1)
		a := p.AddActivity("a", 10)
		b := p.AddActivity("b", 20)
		p.Disjoint(a, b)
		return p
	}
	// Optimum is 31; a bound of 30 kills every ordering.
	p := build()
	p.MakespanBound(30)
	if _, err := p.Minimize(0); !errors.Is(err, ErrBounded) {
		t.Errorf("Minimize under a killing bound: %v, want ErrBounded", err)
	}
	if errors.Is(ErrBounded, ErrInfeasible) {
		t.Error("ErrBounded must not alias ErrInfeasible")
	}
	g := build()
	g.MakespanBound(30)
	if _, err := g.Greedy(); !errors.Is(err, ErrBounded) {
		t.Errorf("Greedy under a killing bound: %v, want ErrBounded", err)
	}
	// A bound equal to the optimum stays feasible and optimal.
	q := build()
	q.MakespanBound(31)
	res, err := q.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 31 || !res.Optimal {
		t.Errorf("bound-at-optimum: makespan %d optimal %v, want 31 true", res.Makespan, res.Optimal)
	}
	// Without any bound the same contradiction reports ErrInfeasible.
	r := NewProblem(1)
	a := r.AddActivity("a", 10)
	r.Release(a, 5)
	r.Deadline(a, 10) // cannot fit 10 µs after t=5 before t=10
	if _, err := r.Minimize(0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unbounded contradiction: %v, want ErrInfeasible", err)
	}
}

// TestMinimizeIsRepeatable pins the trail discipline: a full search must
// leave the underlying STN exactly as it found it, so solving the same
// Problem again — or interleaving Greedy and Minimize — yields identical
// results. The core layer relies on this when it probes one instance
// with several strategies.
func TestMinimizeIsRepeatable(t *testing.T) {
	mk := func() *Problem {
		p := NewProblem(1)
		var acts []ActID
		for i := 0; i < 6; i++ {
			acts = append(acts, p.AddActivity("a", int64(10+3*i)))
		}
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				if (i+j)%2 == 0 {
					p.Disjoint(acts[i], acts[j])
				}
			}
		}
		p.Precede(acts[0], acts[3])
		return p
	}
	p := mk()
	r1, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Minimize(0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Optimal != r2.Optimal || r1.Nodes != r2.Nodes {
		t.Errorf("re-solve drifted: first %+v, second %+v", r1, r2)
	}
	for i := range r1.Starts {
		if r1.Starts[i] != r2.Starts[i] {
			t.Errorf("Starts[%d] drifted: %d vs %d", i, r1.Starts[i], r2.Starts[i])
		}
	}
	if g.Makespan < r1.Makespan {
		t.Errorf("greedy %d beat exact %d", g.Makespan, r1.Makespan)
	}
}

// TestCanonicalSearchPinned pins the canonical branch-and-bound on the
// LWB-like shapes: the proven makespan, the exact node count, and the
// start vector. Any change to branching order, pruning or the cyclic
// resume point moves at least one of them; schedule identity downstream
// (golden pins, corpus bytes, cached schedule bodies) rests on this search.
func TestCanonicalSearchPinned(t *testing.T) {
	for _, c := range []struct {
		tasks, rounds int
		makespan      int64
		nodes         int
		starts        []int64
	}{
		{14, 4, 27466, 1307, []int64{0, 0, 0, 109, 951, 0, 0, 428, 1078, 0, 0, 0, 0, 602, 1463, 6464, 12465, 19466}},
		{10, 3, 19255, 109, []int64{0, 0, 0, 109, 951, 0, 0, 428, 1078, 0, 1253, 6254, 12255}},
	} {
		res, err := lwbLikeInstance(c.tasks, c.rounds).Minimize(100000)
		if err != nil {
			t.Fatalf("%dx%d: %v", c.tasks, c.rounds, err)
		}
		if !res.Optimal || res.Makespan != c.makespan || res.Nodes != c.nodes {
			t.Errorf("%dx%d: makespan %d optimal %v in %d nodes, want %d optimal in %d",
				c.tasks, c.rounds, res.Makespan, res.Optimal, res.Nodes, c.makespan, c.nodes)
		}
		if !reflect.DeepEqual(res.Starts, c.starts) {
			t.Errorf("%dx%d: starts %v, want %v", c.tasks, c.rounds, res.Starts, c.starts)
		}
	}
}
