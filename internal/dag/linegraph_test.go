package dag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fanDAG builds: s1, s2 -> c -> a1, a2 (four messages: s1, s2, c; wait —
// only tasks that emit edges have messages: s1, s2, c).
func fanDAG(t testing.TB) (*Graph, *LineGraph) {
	t.Helper()
	g := New()
	s1 := g.MustAddTask("s1", "n0", 10)
	s2 := g.MustAddTask("s2", "n1", 10)
	c := g.MustAddTask("c", "n2", 20)
	a1 := g.MustAddTask("a1", "n3", 5)
	a2 := g.MustAddTask("a2", "n4", 5)
	g.MustConnect(s1, c, 4)
	g.MustConnect(s2, c, 4)
	g.MustConnect(c, a1, 2)
	g.MustConnect(c, a2, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	lg, err := NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, lg
}

func TestLineGraphStructure(t *testing.T) {
	g, lg := fanDAG(t)
	if lg.NumMessages() != 3 {
		t.Fatalf("NumMessages = %d, want 3", lg.NumMessages())
	}
	s1, _ := g.TaskByName("s1")
	s2, _ := g.TaskByName("s2")
	c, _ := g.TaskByName("c")
	m1, _ := g.MessageOf(s1.ID)
	m2, _ := g.MessageOf(s2.ID)
	mc, _ := g.MessageOf(c.ID)
	if lg.Depth(m1.ID) != 0 || lg.Depth(m2.ID) != 0 {
		t.Errorf("sensor messages should have depth 0")
	}
	if lg.Depth(mc.ID) != 1 {
		t.Errorf("control message depth = %d, want 1", lg.Depth(mc.ID))
	}
	if got := lg.Succs(m1.ID); len(got) != 1 || got[0] != mc.ID {
		t.Errorf("Succs(m1) = %v, want [%d]", got, mc.ID)
	}
	if got := lg.Preds(mc.ID); len(got) != 2 {
		t.Errorf("Preds(mc) = %v, want two", got)
	}
	if lg.MinRounds() != 2 {
		t.Errorf("MinRounds = %d, want 2", lg.MinRounds())
	}
}

func TestValidAssignment(t *testing.T) {
	_, lg := fanDAG(t)
	// Messages 0,1 are sensor messages; 2 is the control message.
	if !lg.ValidAssignment([]int{0, 0, 1}) {
		t.Error("ASAP assignment rejected")
	}
	if !lg.ValidAssignment([]int{0, 1, 2}) {
		t.Error("spread assignment rejected")
	}
	if lg.ValidAssignment([]int{0, 0, 0}) {
		t.Error("assignment violating precedence accepted")
	}
	if lg.ValidAssignment([]int{1, 0, 1}) {
		t.Error("assignment with equal round across an edge accepted")
	}
	if lg.ValidAssignment([]int{0, 0}) {
		t.Error("short assignment accepted")
	}
	if lg.ValidAssignment([]int{0, -1, 1}) {
		t.Error("negative round accepted")
	}
}

func TestEarliestAssignment(t *testing.T) {
	_, lg := fanDAG(t)
	l := lg.EarliestAssignment()
	if !lg.ValidAssignment(l) {
		t.Fatalf("EarliestAssignment %v invalid", l)
	}
	for m := 0; m < lg.NumMessages(); m++ {
		if l[m] != lg.Depth(MsgID(m)) {
			t.Errorf("EarliestAssignment[%d] = %d, want depth %d", m, l[m], lg.Depth(MsgID(m)))
		}
	}
}

func TestEnumerateAssignmentsCompleteAndValid(t *testing.T) {
	_, lg := fanDAG(t)
	const maxRounds = 3
	seen := make(map[string]bool)
	lg.EnumerateAssignments(maxRounds, func(l []int) bool {
		if !lg.ValidAssignment(l) {
			t.Fatalf("enumerated invalid assignment %v", l)
		}
		key := ""
		for _, r := range l {
			key += string(rune('0' + r))
		}
		if seen[key] {
			t.Fatalf("assignment %v enumerated twice", l)
		}
		seen[key] = true
		return true
	})
	// Brute-force count: all l in {0..2}^3 that are valid and use a
	// gapless prefix of rounds.
	want := 0
	for a := 0; a < maxRounds; a++ {
		for b := 0; b < maxRounds; b++ {
			for c := 0; c < maxRounds; c++ {
				l := []int{a, b, c}
				if !lg.ValidAssignment(l) {
					continue
				}
				used := map[int]bool{a: true, b: true, c: true}
				max := a
				if b > max {
					max = b
				}
				if c > max {
					max = c
				}
				gapless := true
				for r := 0; r <= max; r++ {
					if !used[r] {
						gapless = false
					}
				}
				if gapless {
					want++
				}
			}
		}
	}
	if len(seen) != want {
		t.Errorf("enumerated %d assignments, brute force %d", len(seen), want)
	}
}

func TestEnumerateAssignmentsEarlyStop(t *testing.T) {
	_, lg := fanDAG(t)
	calls := 0
	lg.EnumerateAssignments(3, func(l []int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("enumeration continued after fn returned false: %d calls", calls)
	}
}

func TestEnumerateAssignmentsRespectsMaxRounds(t *testing.T) {
	_, lg := fanDAG(t)
	lg.EnumerateAssignments(lg.MinRounds()-1, func(l []int) bool {
		t.Fatalf("enumeration produced %v below MinRounds", l)
		return false
	})
}

func TestLineGraphEmptyApplication(t *testing.T) {
	g := New()
	g.MustAddTask("only", "n0", 10)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	lg, err := NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if lg.MinRounds() != 0 {
		t.Errorf("MinRounds of message-free app = %d, want 0", lg.MinRounds())
	}
	called := false
	lg.EnumerateAssignments(3, func(l []int) bool {
		called = true
		if len(l) != 0 {
			t.Errorf("expected empty assignment, got %v", l)
		}
		return true
	})
	if !called {
		t.Error("enumeration skipped the empty assignment")
	}
}

func TestLineGraphChain(t *testing.T) {
	// A chain a->b->c->d has three messages in a path; every admissible
	// assignment is strictly increasing.
	g := New()
	a := g.MustAddTask("a", "n0", 10)
	b := g.MustAddTask("b", "n1", 10)
	c := g.MustAddTask("c", "n2", 10)
	d := g.MustAddTask("d", "n3", 10)
	g.MustConnect(a, b, 4)
	g.MustConnect(b, c, 4)
	g.MustConnect(c, d, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	lg, err := NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if lg.MinRounds() != 3 {
		t.Fatalf("MinRounds = %d, want 3", lg.MinRounds())
	}
	count := 0
	lg.EnumerateAssignments(3, func(l []int) bool {
		count++
		for i := 0; i+1 < len(l); i++ {
			if l[i] >= l[i+1] {
				t.Errorf("chain assignment %v not strictly increasing", l)
			}
		}
		return true
	})
	if count != 1 {
		t.Errorf("chain with 3 rounds admits %d assignments, want exactly 1", count)
	}
}

// uncutWalk is the enumeration without the height cap: each message
// ranges over every round from one past its latest predecessor's to the
// last, and only the surjectivity check prunes. It is the reference the
// capped walk must reproduce assignment for assignment.
func uncutWalk(lg *LineGraph, maxRounds int, fn func(l []int) bool) {
	if lg.n == 0 {
		fn(nil)
		return
	}
	if maxRounds < lg.MinRounds() {
		return
	}
	order := make([]MsgID, lg.n)
	for i := range order {
		order[i] = MsgID(i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && lg.less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	l := make([]int, lg.n)
	counts := make([]int, maxRounds)
	stopped := false
	for rounds := lg.MinRounds(); rounds <= maxRounds && !stopped; rounds++ {
		var rec func(idx, empty int)
		rec = func(idx, empty int) {
			if stopped || empty > len(order)-idx {
				return
			}
			if idx == len(order) {
				stopped = !fn(l)
				return
			}
			m := order[idx]
			lo := 0
			for _, p := range lg.pred[m] {
				lo = max(lo, l[p]+1)
			}
			for r := lo; r < rounds && !stopped; r++ {
				l[m] = r
				counts[r]++
				e := empty
				if counts[r] == 1 {
					e--
				}
				rec(idx+1, e)
				counts[r]--
			}
		}
		rec(0, rounds)
	}
}

// shapedDAG builds a random application out of chains, fan-ins and
// fan-outs: each task after the first extends the previous task's chain,
// joins two or three earlier tasks, consumes a shared hub, or starts a
// new source. Every task has its own node, so any edge set validates.
func shapedDAG(rng *rand.Rand) *Graph {
	g := New()
	n := 3 + rng.Intn(7)
	hub := TaskID(0)
	for i := 0; i < n; i++ {
		id := g.MustAddTask(taskName(i), nodeName(i), 10)
		if i == 0 {
			continue
		}
		switch rng.Intn(4) {
		case 0: // chain
			g.MustConnect(id-1, id, 4)
		case 1: // fan-in
			for k := 0; k < 2+rng.Intn(2); k++ {
				if src := TaskID(rng.Intn(i)); !g.Reaches(src, id) {
					g.MustConnect(src, id, 4)
				}
			}
		case 2: // fan-out
			g.MustConnect(hub, id, 4)
			if rng.Intn(3) == 0 {
				hub = id
			}
		}
	}
	return g
}

// TestEnumerateMatchesUncutWalk: the height cap only skips branches with
// no complete assignment, so on random chain, fan-in and fan-out shapes,
// at every round budget from the minimum to two above it, the capped walk
// emits exactly the uncut walk's sequence, and an early stop ends both at
// the same prefix.
func TestEnumerateMatchesUncutWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	collect := func(walk func(int, func([]int) bool), maxRounds, limit int) [][]int {
		var seq [][]int
		walk(maxRounds, func(l []int) bool {
			seq = append(seq, append([]int(nil), l...))
			return limit < 0 || len(seq) < limit
		})
		return seq
	}
	total := 0
	for trial := 0; trial < 200; trial++ {
		g := shapedDAG(rng)
		lg, err := NewLineGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		uncut := func(maxRounds int, fn func([]int) bool) { uncutWalk(lg, maxRounds, fn) }
		for maxRounds := lg.MinRounds(); maxRounds <= lg.MinRounds()+2; maxRounds++ {
			want := collect(uncut, maxRounds, -1)
			got := collect(lg.EnumerateAssignments, maxRounds, -1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, maxRounds %d: capped walk emits %d assignments %v, uncut %d %v",
					trial, maxRounds, len(got), got, len(want), want)
			}
			total += len(want)
			if len(want) > 1 {
				stop := 1 + rng.Intn(len(want)-1)
				if got := collect(lg.EnumerateAssignments, maxRounds, stop); !reflect.DeepEqual(got, want[:stop]) {
					t.Fatalf("trial %d, maxRounds %d: stop after %d emits %v, want %v", trial, maxRounds, stop, got, want[:stop])
				}
			}
		}
	}
	t.Logf("%d assignments", total)
	if total < 1000 {
		t.Fatalf("degenerate shapes: %d assignments over all trials", total)
	}
}

// denseDAG builds a random application of 3–12 tasks whose task pairs
// are each joined with one probability, drawn from 0.1–0.5 per graph.
func denseDAG(rng *rand.Rand) *Graph {
	g := New()
	n, p := 3+rng.Intn(10), 0.1+0.4*rng.Float64()
	for i := 0; i < n; i++ {
		g.MustAddTask(taskName(i), nodeName(i), 10)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustConnect(TaskID(i), TaskID(j), 4)
			}
		}
	}
	return g
}

// chainsDAG builds independent chains of the given message counts.
func chainsDAG(msgs ...int) *Graph {
	g := New()
	i := 0
	for _, n := range msgs {
		for k := 0; k <= n; k++ {
			id := g.MustAddTask(taskName(i), nodeName(i), 10)
			i++
			if k > 0 {
				g.MustConnect(id-1, id, 4)
			}
		}
	}
	return g
}

// diamondChain builds a chain of h messages c_0..c_{h-1} plus d messages
// x_i, each between c_{2i} and c_{2i+2} and unordered with c_{2i+1}
// alone (h > 2d). A canonical assignment puts each x_i in c_{2i+1}'s
// round, or in its own round before or after it, and nothing else is
// free, so there are 3^d of them.
func diamondChain(h, d int) *Graph {
	g := chainsDAG(h)
	for i := 0; i < d; i++ {
		x := g.MustAddTask("x"+taskName(i), "x"+nodeName(i), 10)
		g.MustConnect(TaskID(2*i), x, 4)   // x_i consumes c_{2i}
		g.MustConnect(x, TaskID(2*i+2), 4) // and feeds c_{2i+2}'s source
	}
	return g
}

func mustLineGraph(t *testing.T, g *Graph) *LineGraph {
	t.Helper()
	lg, err := NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// walkLen returns how many assignments the walk emits.
func walkLen(lg *LineGraph, maxRounds int) int {
	n := 0
	lg.EnumerateAssignments(maxRounds, func([]int) bool { n++; return true })
	return n
}

// wideFan builds w sources A_i that each feed their own consumer B_i and
// one shared consumer C, which all feed a sink Z. Its line graph is one
// component: a_i -> b_i and a_i -> c. At three rounds it has
// 3^w + 2^w − 2 assignments, and the states of a count grow as 2^w.
func wideFan(w int) *Graph {
	g := New()
	c := g.MustAddTask("c", "nc", 10)
	z := g.MustAddTask("z", "nz", 10)
	g.MustConnect(c, z, 4)
	for i := 0; i < w; i++ {
		a := g.MustAddTask("a"+taskName(i), "na"+nodeName(i), 10)
		b := g.MustAddTask("b"+taskName(i), "nb"+nodeName(i), 10)
		g.MustConnect(a, b, 4)
		g.MustConnect(a, c, 4)
		g.MustConnect(b, z, 4)
	}
	return g
}

// TestCountAssignmentsMatchesWalk: CountAssignments returns the walk's
// length on the chain, fan-in and fan-out shapes of
// TestEnumerateMatchesUncutWalk and on dense random DAGs at every budget
// up to four above the minimum, also with a memo capped at a few entries;
// on a message-free graph at every budget; and at budgets above the
// message count and above 64 rounds. It stays exact on graphs whose
// enumeration no walk could finish.
func TestCountAssignmentsMatchesWalk(t *testing.T) {
	ctx := context.Background()
	check := func(label string, lg *LineGraph, maxRounds int) int {
		t.Helper()
		want := walkLen(lg, maxRounds)
		if got, err := lg.CountAssignments(ctx, maxRounds); got != want || err != nil {
			t.Fatalf("%s at %d rounds: count %d (%v), walk %d", label, maxRounds, got, err, want)
		}
		if got, _, _ := lg.count(ctx, maxRounds, 3); got != want {
			t.Fatalf("%s at %d rounds: count with a 3-entry memo %d, walk %d", label, maxRounds, got, want)
		}
		return want
	}
	rng := rand.New(rand.NewSource(29))
	total := 0
	for trial := 0; trial < 1700; trial++ {
		g := denseDAG(rng)
		if trial < 200 {
			g = shapedDAG(rng)
		}
		lg := mustLineGraph(t, g)
		for maxRounds := 0; maxRounds <= lg.MinRounds()+4; maxRounds++ {
			total += check(fmt.Sprintf("trial %d", trial), lg, maxRounds)
		}
	}
	t.Logf("%d assignments", total)
	if total < 100000 {
		t.Fatalf("degenerate graphs: %d assignments over all trials", total)
	}

	g := New()
	g.MustAddTask("only", "n0", 10)
	empty := mustLineGraph(t, g)
	for maxRounds := 0; maxRounds <= 70; maxRounds++ {
		if check("message-free", empty, maxRounds) != 1 {
			t.Fatalf("message-free graph at %d rounds: walk emits %d, want 1", maxRounds, walkLen(empty, maxRounds))
		}
	}

	for _, tc := range []struct {
		chains    []int
		maxRounds int
		want      int
	}{
		{[]int{34, 1}, 67, 69},
		{[]int{5, 1, 1, 1}, 85, 1763},
		{[]int{66}, 68, 1},
	} {
		label := fmt.Sprintf("chains %v", tc.chains)
		if got := check(label, mustLineGraph(t, chainsDAG(tc.chains...)), tc.maxRounds); got != tc.want {
			t.Errorf("%s at %d rounds: %d assignments, want %d", label, tc.maxRounds, got, tc.want)
		}
	}

	// Past the walk's reach: diamond chains have 3^d assignments and wide
	// fans 3^w + 2^w − 2 at three rounds, which the walk confirms on the
	// small ones. A 54-message chain with 20 diamonds is counted over
	// tiers of 54 to 74 rounds.
	pow3 := func(d int) int {
		n := 1
		for i := 0; i < d; i++ {
			n *= 3
		}
		return n
	}
	for _, tc := range []struct {
		label     string
		g         *Graph
		maxRounds int
		want      int
		walk      bool
	}{
		{"diamond chain h=1 d=0", diamondChain(1, 0), 1, 1, true},
		{"diamond chain h=3 d=1", diamondChain(3, 1), 4, 3, true},
		{"diamond chain h=7 d=3", diamondChain(7, 3), 10, 27, true},
		{"diamond chain h=13 d=6", diamondChain(13, 6), 19, pow3(6), true},
		{"diamond chain h=54 d=20", diamondChain(54, 20), 74, pow3(20), false},
		{"wide fan w=1", wideFan(1), 3, 3, true},
		{"wide fan w=6", wideFan(6), 3, pow3(6) + 1<<6 - 2, true},
		{"wide fan w=12", wideFan(12), 3, pow3(12) + 1<<12 - 2, false},
	} {
		lg := mustLineGraph(t, tc.g)
		if tc.walk && check(tc.label, lg, tc.maxRounds) != tc.want {
			t.Fatalf("%s: walk emits %d, want %d", tc.label, walkLen(lg, tc.maxRounds), tc.want)
		}
		if got, err := lg.CountAssignments(ctx, tc.maxRounds); got != tc.want || err != nil {
			t.Errorf("%s: count %d (%v), want %d", tc.label, got, err, tc.want)
		}
	}
}

// TestCountAssignmentsCancels: a count whose states grow as 2^w stops
// within one poll of an expired context, and returns its error.
func TestCountAssignmentsCancels(t *testing.T) {
	lg := mustLineGraph(t, wideFan(40))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, steps, err := lg.count(ctx, lg.MinRounds()+1, maxCountMemo)
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("count under a canceled context: %d, %v; want 0, context.Canceled", n, err)
	}
	if steps > 2*countPoll {
		t.Errorf("count took %d steps after its context expired, want at most %d", steps, 2*countPoll)
	}
}
