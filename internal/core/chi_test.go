package core

import (
	"errors"
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
		n := 3 + rng.Intn(4)
		var tasks [][]int
		for k := 0; k < 1+rng.Intn(3); k++ {
			var fl []int
			for f := 0; f < n; f++ {
				if rng.Float64() < 0.6 {
					fl = append(fl, f)
				}
			}
			if len(fl) == 0 {
				fl = []int{rng.Intn(n)}
			}
			tasks = append(tasks, fl)
		}
		ci := mkChi(n, 5, 4+rng.Float64()*8, tasks)
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
