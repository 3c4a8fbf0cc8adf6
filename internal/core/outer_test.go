package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// pipe8Problem is the benchmark's pipe8 anchor: eight independent
// weakly-hard pipelines on one bus, built as spec.Build builds it. Its
// 6,433 round assignments are 64 of two rounds and 6,369 of three, and the
// optimum uses two.
func pipe8Problem(tb testing.TB) *Problem {
	tb.Helper()
	g := dag.New()
	cons := make(map[dag.TaskID]wh.MissConstraint)
	node := 0
	for i, wcets := range [][]int64{
		{847, 4081, 225}, {300, 494}, {889, 928}, {445, 21106, 866},
		{647, 947}, {990, 415}, {387, 631}, {337, 831},
	} {
		for k, w := range wcets {
			g.MustAddTask(fmt.Sprintf("p%dt%d", i, k), fmt.Sprintf("n%d", node), w)
			node++
		}
	}
	for _, e := range []struct {
		from, to string
		width    int
	}{
		{"p0t0", "p0t1", 7}, {"p0t1", "p0t2", 9}, {"p1t0", "p1t1", 8}, {"p2t0", "p2t1", 3},
		{"p3t0", "p3t1", 12}, {"p3t1", "p3t2", 9}, {"p4t0", "p4t1", 8}, {"p5t0", "p5t1", 2},
		{"p6t0", "p6t1", 10}, {"p7t0", "p7t1", 10},
	} {
		from, _ := g.TaskByName(e.from)
		to, _ := g.TaskByName(e.to)
		g.MustConnect(from.ID, to.ID, e.width)
	}
	for _, sink := range g.Sinks() {
		cons[sink] = wh.MissConstraint{Misses: 25, Window: 40}
	}
	return &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
	}
}

// TestTierCutWorkCount gates the tier cut on exact work: on pipe8 at
// Workers = 1, the two-round tier's 64 assignments reach assignBound,
// its optimum makes the cheapest three-round member lose, and the walk
// stops at that member, the 65th assignment it emits. The 6,369
// three-round assignments are counted, not walked, and Explored is all
// 6,433. At diameter 2 every message floor is 2 and MinNTX is 1, so the
// cut fires only because it prices the beacons at the lowest message
// floor.
func TestTierCutWorkCount(t *testing.T) {
	for _, tc := range []struct {
		diameter int
		makespan int64
	}{{3, 84705}, {2, 76385}} {
		p := pipe8Problem(t)
		p.Diameter = tc.diameter
		_, s := ablationSearch(t, p)
		best, firstErr := s.run(1)
		if best == nil {
			t.Fatalf("diameter %d: no schedule: %+v", tc.diameter, firstErr)
		}
		bounded := s.walked - 1
		if s.walked != 65 || s.explored != 6433 || s.explored-bounded != 6369 {
			t.Errorf("diameter %d: walked %d, explored %d, cut %d, bounded %d; want 65, 6433, 6369, 64",
				tc.diameter, s.walked, s.explored, s.explored-bounded, bounded)
		}
		if got := len(best.sched.Rounds); got != 2 {
			t.Errorf("diameter %d: optimum uses %d rounds, want 2", tc.diameter, got)
		}
		p = pipe8Problem(t)
		p.Diameter = tc.diameter
		sched, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sched.Explored != 6433 || sched.Makespan != tc.makespan || best.sched.Makespan != tc.makespan {
			t.Errorf("diameter %d: Solve explored %d makespan %d, search makespan %d; want 6433 and %d",
				tc.diameter, sched.Explored, sched.Makespan, best.sched.Makespan, tc.makespan)
		}
	}
}

// TestOuterSearchAllocations gates the allocations of the outer search:
// the admissibility bound allocates nothing under either objective, and
// whole solves at Workers = 1 stay under their gates. A pipe8 solve took
// 12,870 allocations before losing assignments stopped allocating and
// 5,442 before each consumer kept one placement template and one χ
// scratch; it is gated at 1,000. av-heavy took 38,773 then and is gated
// at 1,500.
func TestOuterSearchAllocations(t *testing.T) {
	for _, obj := range []Objective{ObjectiveMakespan, ObjectiveEnergy} {
		p := pipe8Problem(t)
		p.Objective = obj
		lg, s := ablationSearch(t, p)
		inc := &incumbentRec{energy: 1, makespan: 1, idx: 0}
		lg.EnumerateAssignments(s.maxRounds, func(l []int) bool {
			if allocs := testing.AllocsPerRun(100, func() { s.assignBound(l, 1, inc) }); allocs != 0 {
				t.Errorf("objective %v: assignBound allocates %.0f times, want 0", obj, allocs)
			}
			return false
		})
	}

	for _, tc := range []struct {
		name string
		p    *Problem
		gate float64
	}{
		{"pipe8", pipe8Problem(t), 1000},
		{"av-heavy", avHeavyProblem(t, false, false), 1500},
	} {
		tc.p.Workers = 1
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Solve(tc.p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s Solve at Workers = 1: %.0f allocations", tc.name, allocs)
		if allocs > tc.gate {
			t.Errorf("%s Solve at Workers = 1 allocates %.0f times, want at most %.0f", tc.name, allocs, tc.gate)
		}
	}
}

// referenceSolve is the outer search with nothing skipped: it schedules
// every enumerated assignment without an incumbent bound, each on a
// one-off scratch, and reduces with betterCand. scheduleForAssignment still applies MakespanCap and
// the symmetry skip, which are part of the problem and of the
// per-assignment search. It returns the winner, the enumeration size
// and Solve's error when nothing wins.
func referenceSolve(t *testing.T, p *Problem) (*Schedule, int, error) {
	t.Helper()
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
	var best *candidate
	var firstErr error
	n := 0
	lg.EnumerateAssignments(maxRounds, func(l []int) bool {
		idx := n
		n++
		sched, err := p.scheduleForAssignment(context.Background(), &scratch{}, l, -1)
		if err != nil {
			if !skippableSearchErr(err) && firstErr == nil {
				firstErr = err
			}
			return true
		}
		if best == nil || p.betterCand(sched.EnergyPC, sched.Makespan, idx,
			best.sched.EnergyPC, best.sched.Makespan, best.idx) {
			best = &candidate{sched: sched, idx: idx}
		}
		return true
	})
	if best != nil {
		return best.sched, n, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: no admissible round assignment", ErrUnsat)
	}
	return nil, n, firstErr
}

// TestSolveMatchesReference checks the outer search's skips against
// referenceSolve on random small soft and weakly-hard instances: under
// both objectives, with MakespanCap at and below the reference optimum,
// and at Workers 1 and 4, Solve returns the reference's makespan,
// energy, assignment and Explored, or its error.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2300))
	compared := 0
	for trial := 0; trial < 14; trial++ {
		g, err := apps.RandomLayered(2+rng.Intn(2), 1+rng.Intn(3), 2, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		soft := trial%2 == 0
		diameter, maxNTX := 1+rng.Intn(4), 4+rng.Intn(5)
		softTarget, misses := 0.5+0.45*rng.Float64(), 10+rng.Intn(25)
		mk := func(obj Objective, cap int64, workers int) *Problem {
			p := &Problem{
				App: g, Params: glossy.DefaultParams(), Diameter: diameter, MaxNTX: maxNTX,
				Objective: obj, MakespanCap: cap, Workers: workers,
			}
			if soft {
				p.Mode, p.SoftStat = Soft, glossy.BernoulliSoft{PerTX: 0.8}
				p.SoftCons = map[dag.TaskID]float64{}
				for _, s := range g.Sinks() {
					p.SoftCons[s] = softTarget
				}
			} else {
				p.Mode, p.WHStat = WeaklyHard, glossy.SyntheticWH{}
				p.WHCons = map[dag.TaskID]wh.MissConstraint{}
				for _, s := range g.Sinks() {
					p.WHCons[s] = wh.MissConstraint{Misses: misses, Window: 40}
				}
			}
			return p
		}
		for _, obj := range []Objective{ObjectiveMakespan, ObjectiveEnergy} {
			opt, _, err := referenceSolve(t, mk(obj, 0, 1))
			type variant struct {
				name string
				cap  int64
			}
			variants := []variant{{"plain", 0}}
			if err == nil {
				m := opt.Makespan
				variants = append(variants, variant{"cap at optimum", m}, variant{"cap below optimum", m - 1})
			}
			for _, v := range variants {
				ref, explored, refErr := referenceSolve(t, mk(obj, v.cap, 1))
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("trial %d soft=%v objective %v %s workers %d", trial, soft, obj, v.name, workers)
					got, err := Solve(mk(obj, v.cap, workers))
					if refErr != nil || err != nil {
						if refErr == nil || err == nil || err.Error() != refErr.Error() {
							t.Fatalf("%s: error %v, reference %v", label, err, refErr)
						}
						continue
					}
					compared++
					if got.Makespan != ref.Makespan || got.EnergyPC != ref.EnergyPC ||
						!reflect.DeepEqual(got.Assign, ref.Assign) || got.Explored != explored {
						t.Fatalf("%s: makespan %d energy %d assign %v explored %d; reference %d %d %v %d",
							label, got.Makespan, got.EnergyPC, got.Assign, got.Explored,
							ref.Makespan, ref.EnergyPC, ref.Assign, explored)
					}
				}
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d schedules compared; generator parameters degenerate", compared)
	}
	t.Logf("%d schedules compared", compared)
}
