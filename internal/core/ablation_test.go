package core

import (
	"context"
	"math"
	"testing"

	"github.com/netdag/netdag/internal/dag"
)

// ablationSearch normalizes p and returns its line graph and outer
// search, the state every per-assignment call reads.
func ablationSearch(t *testing.T, p *Problem) (*dag.LineGraph, *search) {
	t.Helper()
	p.Workers = 1
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	lg, err := dag.NewLineGraph(p.App)
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := p.MaxRounds
	if maxRounds == 0 {
		maxRounds = lg.MinRounds() + DefaultExtraRounds
	}
	return lg, newSearch(context.Background(), p, lg, maxRounds)
}

// TestSymmetrySkipWorkCount gates the interchange-class dominance skip
// on exact work: with no incumbent bound, av-heavy's symmetry orbits
// send 1,975 of its 2,500 round assignments back as errDominated before
// placement, and only 525 reach the placement search. NoSymmetry builds
// no interchange classes, so every assignment is placed.
func TestSymmetrySkipWorkCount(t *testing.T) {
	for _, tc := range []struct {
		noSym             bool
		dominated, placed int
	}{
		{false, 1975, 525},
		{true, 0, 2500},
	} {
		p := avHeavyProblem(t, tc.noSym, false)
		lg, _ := ablationSearch(t, p)
		if tc.noSym && len(p.iclasses) != 0 {
			t.Fatalf("NoSymmetry built %d interchange classes", len(p.iclasses))
		}
		dominated, placed := 0, 0
		lg.EnumerateAssignments(p.MaxRounds, func(l []int) bool {
			_, err := p.scheduleForAssignment(context.Background(), &scratch{}, append([]int(nil), l...), -1)
			switch {
			case err == errDominated:
				dominated++
			case err == nil:
				placed++
			default:
				t.Fatalf("noSym=%v: assignment %v: %v", tc.noSym, l, err)
			}
			return true
		})
		if dominated != tc.dominated || placed != tc.placed {
			t.Errorf("noSym=%v: %d dominated, %d placed; want %d, %d",
				tc.noSym, dominated, placed, tc.dominated, tc.placed)
		}
	}
}

// TestEnergyBoundWorkCount gates the admissible energy lower bound on
// exact work: on paretoBenchProblem under ObjectiveEnergy, with the
// energy optimum as the incumbent (index +∞, so no tie-break prunes),
// assignBound rejects 1,056 of the 1,057 round assignments, keeping only
// the optimum's own. NoEnergyBound turns the incumbent prune off.
func TestEnergyBoundWorkCount(t *testing.T) {
	ref := paretoBenchProblem(t, false)
	ref.Objective, ref.Workers = ObjectiveEnergy, 1
	opt, err := Solve(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		noBound  bool
		rejected int
	}{
		{false, 1056},
		{true, 0},
	} {
		p := paretoBenchProblem(t, tc.noBound)
		p.Objective = ObjectiveEnergy
		lg, s := ablationSearch(t, p)
		inc := &incumbentRec{energy: opt.EnergyPC, makespan: opt.Makespan, idx: math.MaxInt}
		n, rejected := 0, 0
		lg.EnumerateAssignments(p.MaxRounds, func(l []int) bool {
			if prune, _ := s.assignBound(l, n, inc); prune {
				rejected++
			}
			n++
			return true
		})
		if n != 1057 || rejected != tc.rejected {
			t.Errorf("noBound=%v: bound rejected %d of %d assignments, want %d of 1057",
				tc.noBound, rejected, n, tc.rejected)
		}
	}
}
