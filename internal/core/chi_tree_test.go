package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// legacySolveExact is the χ branch and bound as it stood before the
// optimistic deficit sums became incremental: every node re-sums every
// constraint left to right and every leaf re-checks the whole vector
// with violated. It returns its node count so TestChiSearchKeepsItsTree
// can pin that solveExact visits the same tree node for node.
func (ci *chiInstance) legacySolveExact() ([]int, int, error) {
	chi := make([]int, ci.n)
	copy(chi, ci.lower)
	inCons := make([]bool, ci.n)
	for _, c := range ci.cons {
		for _, f := range c.floods {
			inCons[f] = true
		}
	}
	var order []int
	for f := 0; f < ci.n; f++ {
		if inCons[f] {
			order = append(order, f)
		}
	}
	levels := make([][]int, ci.n)
	for _, f := range order {
		lv := []int{ci.lower[f]}
		for v := ci.lower[f] + 1; v <= ci.upper; v++ {
			if ci.def[f][v-1] < ci.def[f][lv[len(lv)-1]-1]-chiEps {
				lv = append(lv, v)
			}
		}
		levels[f] = lv
	}
	best := make([]int, ci.n)
	bestCost := int64(-1)
	if g, err := ci.solveGreedy(); err == nil {
		copy(best, g)
		bestCost = ci.totalCost(g)
	}
	var pinnedCost int64
	for f := 0; f < ci.n; f++ {
		if !inCons[f] {
			pinnedCost += ci.cost[f][ci.lower[f]-1]
		}
	}
	minRemCost := make([]int64, len(order)+1)
	for i := len(order) - 1; i >= 0; i-- {
		f := order[i]
		minRemCost[i] = minRemCost[i+1] + ci.cost[f][ci.lower[f]-1]
	}
	assigned := make([]bool, ci.n)
	for f := 0; f < ci.n; f++ {
		assigned[f] = !inCons[f]
	}
	nodes := 0
	var rec func(i int, committed int64)
	rec = func(i int, committed int64) {
		nodes++
		if nodes > chiNodeBudget {
			return
		}
		if bestCost >= 0 && committed+minRemCost[i] >= bestCost {
			return
		}
		if i == len(order) {
			if ci.violated(chi) >= 0 {
				return
			}
			bestCost = committed
			copy(best, chi)
			return
		}
		for _, c := range ci.cons {
			sum := 0.0
			for _, fl := range c.floods {
				if assigned[fl] {
					sum += ci.def[fl][chi[fl]-1]
				} else {
					sum += ci.def[fl][ci.upper-1]
				}
			}
			if sum > c.budget+chiEps {
				return
			}
		}
		f := order[i]
		assigned[f] = true
		for _, v := range levels[f] {
			chi[f] = v
			rec(i+1, committed+ci.cost[f][v-1])
		}
		chi[f] = ci.lower[f]
		assigned[f] = false
	}
	rec(0, pinnedCost)
	if bestCost < 0 {
		return nil, nodes, fmt.Errorf("%w: exact χ search found no assignment", ErrUnsat)
	}
	return best, nodes, nil
}

// randChiInstance draws a covering instance in the shape scheduleForAssignment
// builds: strictly increasing costs, non-increasing deficits, per-flood
// lower bounds and 1–4 constraints over distinct floods in random order.
// Soft deficits are −log λ(n) of a per-flood Bernoulli link; weakly-hard
// ones are integer miss counts.
func randChiInstance(rng *rand.Rand, n, upper int, soft bool) *chiInstance {
	ci := &chiInstance{n: n, upper: upper, lower: make([]int, n)}
	for f := 0; f < n; f++ {
		ci.lower[f] = 1 + rng.Intn(2)
		def := make([]float64, upper)
		cost := make([]int64, upper)
		c := int64(200 + rng.Intn(800))
		miss := float64(2 + rng.Intn(6))
		pTX := 0.3 + 0.6*rng.Float64()
		for i := 0; i < upper; i++ {
			if soft {
				def[i] = -math.Log(1 - math.Pow(1-pTX, float64(i+1)))
			} else {
				def[i] = miss
				if miss > 0 && rng.Intn(3) > 0 {
					miss--
				}
			}
			cost[i] = c
			c += int64(20 + rng.Intn(300))
		}
		ci.def = append(ci.def, def)
		ci.cost = append(ci.cost, cost)
	}
	for k := 0; k < 1+rng.Intn(4); k++ {
		var floods []int
		for _, f := range rng.Perm(n) {
			if rng.Float64() < 0.6 {
				floods = append(floods, f)
			}
		}
		if len(floods) == 0 {
			floods = []int{rng.Intn(n)}
		}
		// Budget between the all-upper and all-lower deficit sums, so
		// most instances need a real search.
		lo, hi := 0.0, 0.0
		for _, f := range floods {
			lo += ci.def[f][upper-1]
			hi += ci.def[f][ci.lower[f]-1]
		}
		budget := lo + (hi-lo)*rng.Float64()
		if !soft {
			budget = math.Floor(budget)
		}
		ci.cons = append(ci.cons, chiConstraint{task: fmt.Sprintf("t%d", k), floods: floods, budget: budget})
	}
	return ci
}

// pinAtThreshold moves one constraint's budget so the left-to-right
// deficit sum of the search's answer lands exactly on budget + chiEps, or
// one ulp to either side: there an incrementally kept sum that rounds
// differently flips the feasibility test unless it is re-summed.
func pinAtThreshold(rng *rand.Rand, ci *chiInstance) {
	chi, _, err := ci.legacySolveExact()
	if err != nil {
		return
	}
	c := &ci.cons[rng.Intn(len(ci.cons))]
	target := 0.0
	for _, f := range c.floods {
		target += ci.def[f][chi[f]-1]
	}
	// Exactly at the sum, or one ulp above or below it.
	target = math.Nextafter(target, target+float64(rng.Intn(3)-1))
	// Nudge the budget until budget + chiEps rounds to target.
	b := target - chiEps
	for i := 0; i < 16 && b+chiEps != target; i++ {
		if b+chiEps < target {
			b = math.Nextafter(b, math.Inf(1))
		} else {
			b = math.Nextafter(b, math.Inf(-1))
		}
	}
	c.budget = b
}

func sameChiResult(t *testing.T, label string, ci *chiInstance) (nodes int) {
	t.Helper()
	wantChi, wantNodes, wantErr := ci.legacySolveExact()
	gotChi, gotNodes, gotErr := ci.solveExact()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, want %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotChi, wantChi) {
		t.Fatalf("%s: chi %v, want %v", label, gotChi, wantChi)
	}
	if gotNodes != wantNodes {
		t.Fatalf("%s: %d nodes, want %d", label, gotNodes, wantNodes)
	}
	return gotNodes
}

// TestChiSearchKeepsItsTree pins that the χ search visits exactly the
// nodes the full-re-sum search did, in the same order: same vector or
// error and the same node count on random instances of both modes,
// including sums within 1e-12 of the feasibility threshold and searches
// the node budget cuts short. The node budget, and so every truncated
// answer, depends on the count being identical.
func TestChiSearchKeepsItsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 600; trial++ {
		soft := trial%2 == 0
		ci := randChiInstance(rng, 2+rng.Intn(8), 3+rng.Intn(6), soft)
		if soft && trial%4 == 0 {
			pinAtThreshold(rng, ci)
		}
		sameChiResult(t, fmt.Sprintf("trial %d (soft=%v)", trial, soft), ci)
	}

	// Instances past the node budget: 14 floods with flat costs under
	// one wide constraint leave the cost bound nearly powerless.
	truncated := 0
	for trial := 0; trial < 4; trial++ {
		soft := trial%2 == 0
		ci := randChiInstance(rng, 14, 8, soft)
		all := rng.Perm(14)
		lo, hi := 0.0, 0.0
		for f := 0; f < 14; f++ {
			ci.lower[f] = 1
			for i := range ci.cost[f] {
				ci.cost[f][i] = int64(1000 + 10*i + f%3)
			}
			lo += ci.def[f][7]
			hi += ci.def[f][0]
		}
		budget := lo + (hi-lo)/3
		if !soft {
			budget = math.Floor(budget)
		}
		ci.cons = []chiConstraint{{task: "wide", floods: all, budget: budget}}
		if sameChiResult(t, fmt.Sprintf("budget trial %d (soft=%v)", trial, soft), ci) > chiNodeBudget {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("no instance ran past the node budget; the truncated path is untested")
	}
}
