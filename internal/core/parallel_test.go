package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// sameSchedule fails the test unless a and b are identical in every
// field but SolverNodes, work accounting that depends on worker
// interleaving — the parallel search's determinism contract.
func sameSchedule(t *testing.T, label string, a, b *Schedule) {
	t.Helper()
	x, y := *a, *b
	x.SolverNodes, y.SolverNodes = 0, 0
	if !reflect.DeepEqual(&x, &y) {
		t.Fatalf("%s: schedules differ\n%+v\n%+v", label, x, y)
	}
}

// TestParallelSolveMatchesSequential is the determinism property test:
// over a corpus of random layered applications in both modes, solving
// with Workers = 1 and Workers = 4 must produce byte-identical schedules
// (or the same error class), and every schedule must pass the audit.
func TestParallelSolveMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7031))
	solved := 0
	for trial := 0; trial < 25; trial++ {
		layers := 2 + rng.Intn(2)
		width := 1 + rng.Intn(3)
		g, err := apps.RandomLayered(layers, width, 2, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		sinks := g.Sinks()
		mk := func(workers int) *Problem {
			p := &Problem{
				App:       g,
				Params:    glossy.DefaultParams(),
				Diameter:  1 + rng.Intn(4),
				MaxNTX:    4 + rng.Intn(5),
				GreedyChi: rng.Intn(2) == 0,
				Workers:   workers,
			}
			if rng.Intn(2) == 0 {
				p.Mode = Soft
				p.SoftStat = glossy.BernoulliSoft{PerTX: 0.6 + 0.35*rng.Float64()}
				p.SoftCons = map[dag.TaskID]float64{}
				for _, s := range sinks {
					p.SoftCons[s] = 0.5 + 0.45*rng.Float64()
				}
			} else {
				p.Mode = WeaklyHard
				p.WHStat = glossy.SyntheticWH{}
				p.WHCons = map[dag.TaskID]wh.MissConstraint{}
				for _, s := range sinks {
					p.WHCons[s] = wh.MissConstraint{Misses: 10 + rng.Intn(25), Window: 40}
				}
			}
			return p
		}
		// The rng draws inside mk must be identical for both problems:
		// freeze them by building the sequential problem first and copying.
		seq := mk(1)
		par := &Problem{}
		*par = *seq
		par.Workers = 4

		sSeq, errSeq := Solve(seq)
		sPar, errPar := Solve(par)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("trial %d: sequential err %v, parallel err %v", trial, errSeq, errPar)
		}
		if errSeq != nil {
			if errSeq.Error() != errPar.Error() {
				t.Fatalf("trial %d: error text diverged: %q vs %q", trial, errSeq, errPar)
			}
			continue
		}
		solved++
		sameSchedule(t, "trial", sSeq, sPar)
		if err := sSeq.Validate(g); err != nil {
			t.Fatalf("trial %d: audit failed: %v", trial, err)
		}
	}
	if solved == 0 {
		t.Fatal("no random instance was solvable; generator parameters degenerate")
	}
	t.Logf("determinism corpus: %d solved", solved)
}

// TestParallelSolveMatchesSequentialMIMO pins the paper-scale instance:
// the MIMO application has enough assignments for real contention on the
// incumbent, so any unsound pruning shows up here.
func TestParallelSolveMatchesSequentialMIMO(t *testing.T) {
	mk := func(workers, extraRounds int) *Problem {
		g, err := apps.MIMO(apps.DefaultMIMO())
		if err != nil {
			t.Fatal(err)
		}
		cons := make(map[dag.TaskID]wh.MissConstraint)
		for _, a := range apps.Actuators(g) {
			cons[a] = wh.MissConstraint{Misses: 24, Window: 40}
		}
		p := &Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 4,
			Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
			GreedyChi: true, Workers: workers,
		}
		if extraRounds > 0 {
			lg, err := dag.NewLineGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			p.MaxRounds = lg.MinRounds() + extraRounds
		}
		return p
	}
	for _, extra := range []int{0, 1} {
		ref, err := Solve(mk(1, extra))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := Solve(mk(workers, extra))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			sameSchedule(t, "mimo", ref, got)
		}
	}
}

// TestParallelExploredCountsAllAssignments: pruned assignments still
// count, so Explored equals the full enumeration size regardless of
// worker count or pruning luck.
func TestParallelExploredCountsAllAssignments(t *testing.T) {
	g, err := apps.Pipeline(4, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage3")
	mk := func(workers int) *Problem {
		return &Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 3,
			Mode:     Soft,
			SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
			SoftCons: map[dag.TaskID]float64{last.ID: 0.9},
			Workers:  workers,
		}
	}
	ref, err := Solve(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := dag.NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	lg.EnumerateAssignments(lg.MinRounds()+DefaultExtraRounds, func([]int) bool { count++; return true })
	if ref.Explored != count {
		t.Fatalf("sequential Explored = %d, enumeration size %d", ref.Explored, count)
	}
	par, err := Solve(mk(6))
	if err != nil {
		t.Fatal(err)
	}
	if par.Explored != count {
		t.Errorf("parallel Explored = %d, enumeration size %d", par.Explored, count)
	}
}

// TestSolveRejectsNegativeWorkers: the knob is validated like the rest
// of the Problem.
func TestSolveRejectsNegativeWorkers(t *testing.T) {
	p, _ := softPipeline(t, 0.9)
	p.Workers = -2
	if _, err := Solve(p); err == nil {
		t.Error("negative Workers accepted")
	}
}

// TestSatisfiedAuditMismatchedSchedule is the regression test for the
// χ=0 panic: auditing a task whose predecessor messages the schedule
// does not cover must return ErrScheduleMismatch, not panic.
func TestSatisfiedAuditMismatchedSchedule(t *testing.T) {
	p, g := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage2")

	// A foreign (larger) application: its message IDs are absent from
	// the pipeline schedule.
	big, err := apps.Pipeline(5, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	bigLast, _ := big.TaskByName("stage4")
	pBig := &Problem{
		App: big, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{bigLast.ID: 0.9},
	}
	if _, err := SatisfiedSoft(pBig, s, bigLast.ID); !errors.Is(err, ErrScheduleMismatch) {
		t.Errorf("soft audit of mismatched schedule: %v, want ErrScheduleMismatch", err)
	}
	pBig.Mode = WeaklyHard
	pBig.WHStat = glossy.SyntheticWH{}
	if _, _, err := SatisfiedWH(pBig, s, bigLast.ID); !errors.Is(err, ErrScheduleMismatch) {
		t.Errorf("WH audit of mismatched schedule: %v, want ErrScheduleMismatch", err)
	}

	// A schedule with the right Assign vector but gutted rounds: the slot
	// lookup fails even though the assignment looks plausible.
	gutted := &Schedule{
		Mode:   s.Mode,
		Assign: append([]int(nil), s.Assign...),
		Tasks:  s.Tasks,
	}
	if _, err := SatisfiedSoft(p, gutted, last.ID); !errors.Is(err, ErrScheduleMismatch) {
		t.Errorf("soft audit of slotless schedule: %v, want ErrScheduleMismatch", err)
	}
	pWH, _ := whPipeline(t, wh.MissConstraint{Misses: 10, Window: 40})
	if _, _, err := SatisfiedWH(pWH, gutted, last.ID); !errors.Is(err, ErrScheduleMismatch) {
		t.Errorf("WH audit of slotless schedule: %v, want ErrScheduleMismatch", err)
	}
}
