package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// mkChi builds a chiInstance with linear costs and geometric deficits.
func mkChi(n, upper int, budgetPerTask float64, tasks [][]int) *chiInstance {
	ci := &chiInstance{n: n, upper: upper, lower: make([]int, n)}
	for f := 0; f < n; f++ {
		ci.lower[f] = 1
		def := make([]float64, upper)
		cost := make([]int64, upper)
		d := 8.0
		for i := 0; i < upper; i++ {
			def[i] = d
			d /= 2
			cost[i] = int64(100 * (i + 1))
		}
		ci.def = append(ci.def, def)
		ci.cost = append(ci.cost, cost)
	}
	for i, floods := range tasks {
		ci.cons = append(ci.cons, chiConstraint{
			task:   string(rune('A' + i)),
			floods: floods,
			budget: budgetPerTask,
		})
	}
	return ci
}

func TestChiExactFindsMinimum(t *testing.T) {
	// Two floods, one constraint with budget 6: deficits per level are
	// 8,4,2,1. Options: (2,2): 4+4=8 > 6; (3,2): 2+4=6 OK cost 300+200;
	// (2,3): same by symmetry. Exact must find cost 500.
	ci := mkChi(2, 4, 6, [][]int{{0, 1}})
	chi, _, err := ci.solveExact()
	if err != nil {
		t.Fatal(err)
	}
	if got := ci.totalCost(chi); got != 500 {
		t.Errorf("exact cost = %d (chi=%v), want 500", got, chi)
	}
	if ci.violated(chi) >= 0 {
		t.Errorf("exact solution violates a constraint: %v", chi)
	}
}

func TestChiGreedyFeasible(t *testing.T) {
	ci := mkChi(4, 6, 5, [][]int{{0, 1}, {1, 2, 3}})
	chi, err := ci.solveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if ci.violated(chi) >= 0 {
		t.Errorf("greedy solution violates a constraint: %v", chi)
	}
}

func TestChiExactNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		ci := randChiInstance(rng, 3+rng.Intn(4), 5, trial%2 == 0)
		exact, _, errE := ci.solveExact()
		greedy, errG := ci.solveGreedy()
		if errE != nil {
			if errG == nil {
				t.Fatalf("trial %d: exact unsat, greedy found %v", trial, greedy)
			}
			continue
		}
		if errG != nil {
			t.Fatalf("trial %d: greedy failed on feasible instance: %v", trial, errG)
		}
		if ci.totalCost(exact) > ci.totalCost(greedy) {
			t.Fatalf("trial %d: exact %d worse than greedy %d", trial,
				ci.totalCost(exact), ci.totalCost(greedy))
		}
	}
}

func TestChiInfeasibleDetected(t *testing.T) {
	// Budget below the deficit floor at max level (deficit 1 per flood).
	ci := mkChi(3, 4, 0.5, [][]int{{0, 1, 2}})
	if _, _, err := ci.solve(false); !errors.Is(err, ErrUnsat) {
		t.Errorf("infeasible instance: %v, want ErrUnsat", err)
	}
}

func TestChiRespectsLowerBounds(t *testing.T) {
	ci := mkChi(2, 4, 100, nil) // no constraints: lower bounds dominate
	ci.lower[1] = 3
	chi, _, err := ci.solve(false)
	if err != nil {
		t.Fatal(err)
	}
	if chi[0] != 1 || chi[1] != 3 {
		t.Errorf("chi = %v, want [1 3]", chi)
	}
}

func TestChiLowerBoundAboveUpperIsUnsat(t *testing.T) {
	ci := mkChi(1, 3, 100, nil)
	ci.lower[0] = 4
	if _, _, err := ci.solve(false); !errors.Is(err, ErrUnsat) {
		t.Errorf("lower > upper: %v, want ErrUnsat", err)
	}
}

func TestChiSharedFloodSavesCost(t *testing.T) {
	// Two tasks share flood 1; raising the shared flood should satisfy
	// both more cheaply than raising the private floods. Exact search
	// must exploit this.
	ci := mkChi(3, 6, 9, [][]int{{0, 1}, {1, 2}})
	chi, _, err := ci.solveExact()
	if err != nil {
		t.Fatal(err)
	}
	if !(chi[1] >= chi[0] && chi[1] >= chi[2]) {
		t.Errorf("expected the shared flood to carry the investment: %v", chi)
	}
}

// bruteChiInstance is randChiInstance with at most 6 floods, 5 levels
// and 3 constraints, its costs redrawn as small strictly increasing
// integers so that equal-cost vectors are common. Its lower bounds are
// 1 or 2, so with a single level some lie above upper.
func bruteChiInstance(rng *rand.Rand, soft bool) *chiInstance {
	ci := randChiInstance(rng, 1+rng.Intn(6), 1+rng.Intn(5), soft)
	ci.cons = ci.cons[:min(len(ci.cons), 3)]
	for _, cost := range ci.cost {
		c := int64(1 + rng.Intn(3))
		for i := range cost {
			cost[i], c = c, c+int64(1+rng.Intn(2))
		}
	}
	return ci
}

// bruteChiFeasible reports whether chi lies in the box and meets every
// constraint, summing deficits itself rather than calling violated.
func bruteChiFeasible(ci *chiInstance, chi []int) bool {
	for f, v := range chi {
		if v < ci.lower[f] || v > ci.upper {
			return false
		}
	}
	for _, c := range ci.cons {
		sum := 0.0
		for _, f := range c.floods {
			sum += ci.def[f][chi[f]-1]
		}
		if sum > c.budget+chiEps {
			return false
		}
	}
	return true
}

// TestChiMatchesBruteForce checks the χ search against enumeration of
// every vector in the box [lower, upper]^n: solve must return a feasible
// vector of the least cost, marked exact, or ErrUnsat exactly when no
// vector is feasible.
func TestChiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2700))
	const trials = 2000
	sat, tied := 0, 0
	for trial := 0; trial < trials; trial++ {
		ci := bruteChiInstance(rng, trial%2 == 0)
		var best int64
		optima := 0
		chi := make([]int, ci.n)
		var walk func(f int, cost int64)
		walk = func(f int, cost int64) {
			if f == ci.n {
				switch {
				case !bruteChiFeasible(ci, chi):
				case optima == 0 || cost < best:
					best, optima = cost, 1
				case cost == best:
					optima++
				}
				return
			}
			for v := ci.lower[f]; v <= ci.upper; v++ {
				chi[f] = v
				walk(f+1, cost+ci.cost[f][v-1])
			}
		}
		walk(0, 0)
		label := fmt.Sprintf("trial %d (soft=%v)", trial, trial%2 == 0)
		got, exact, err := ci.solve(false)
		if optima == 0 {
			if !errors.Is(err, ErrUnsat) {
				t.Fatalf("%s: no feasible vector, search returned %v, %v", label, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v; brute force found cost %d", label, err, best)
		}
		if !exact || !bruteChiFeasible(ci, got) || ci.totalCost(got) != best {
			t.Fatalf("%s: chi %v (exact %v, feasible %v) costs %d, brute-force optimum %d",
				label, got, exact, bruteChiFeasible(ci, got), ci.totalCost(got), best)
		}
		sat++
		if optima > 1 {
			tied++
		}
	}
	t.Logf("%d of %d instances satisfiable, %d of those with tied optima", sat, trials, tied)
	if sat < trials/2 || tied == 0 {
		t.Fatalf("generator degenerate: %d satisfiable, %d tied", sat, tied)
	}
}
