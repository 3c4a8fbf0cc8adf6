package core

import (
	"errors"
	"math"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// softPipeline returns a 3-stage pipeline problem under a Bernoulli soft
// statistic.
func softPipeline(t testing.TB, target float64) (*Problem, *dag.Graph) {
	t.Helper()
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage2")
	p := &Problem{
		App:      g,
		Params:   glossy.DefaultParams(),
		Diameter: 3,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{last.ID: target},
	}
	return p, g
}

func TestSolveSoftPipeline(t *testing.T) {
	p, g := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatalf("schedule fails its own feasibility audit: %v", err)
	}
	if len(s.Rounds) < 2 {
		t.Errorf("3-stage pipeline needs 2 rounds, got %d", len(s.Rounds))
	}
	last, _ := g.TaskByName("stage2")
	if got, err := SatisfiedSoft(p, s, last.ID); err != nil || got < 0.9 {
		t.Errorf("guaranteed probability %v below target 0.9 (err %v)", got, err)
	}
	if !s.Optimal {
		t.Error("paper-scale instance should be solved to optimality")
	}
}

func TestSolveSoftTightTargetsRaiseNTX(t *testing.T) {
	loose, _ := softPipeline(t, 0.5)
	tight, _ := softPipeline(t, 0.999)
	sLoose, err := Solve(loose)
	if err != nil {
		t.Fatal(err)
	}
	sTight, err := Solve(tight)
	if err != nil {
		t.Fatal(err)
	}
	if sTight.Makespan <= sLoose.Makespan {
		t.Errorf("tighter soft target should cost makespan: %d vs %d", sTight.Makespan, sLoose.Makespan)
	}
	if sTight.BusTime <= sLoose.BusTime {
		t.Errorf("tighter soft target should cost bus time: %d vs %d", sTight.BusTime, sLoose.BusTime)
	}
}

func TestSolveSoftUnsatProbabilityOne(t *testing.T) {
	p, _ := softPipeline(t, 1.0)
	if _, err := Solve(p); !errors.Is(err, ErrUnsat) {
		t.Errorf("probability-1 target over lossy bus: %v, want ErrUnsat", err)
	}
}

func TestSolveSoftUnreachableTarget(t *testing.T) {
	p, _ := softPipeline(t, 0.9999999)
	p.SoftStat = glossy.BernoulliSoft{PerTX: 0.3}
	p.MaxNTX = 2
	if _, err := Solve(p); !errors.Is(err, ErrUnsat) {
		t.Errorf("unreachable target: %v, want ErrUnsat", err)
	}
}

func whPipeline(t testing.TB, target wh.MissConstraint) (*Problem, *dag.Graph) {
	t.Helper()
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage2")
	p := &Problem{
		App:      g,
		Params:   glossy.DefaultParams(),
		Diameter: 3,
		Mode:     WeaklyHard,
		WHStat:   glossy.SyntheticWH{},
		WHCons:   map[dag.TaskID]wh.MissConstraint{last.ID: target},
	}
	return p, g
}

func TestSolveWeaklyHardPipeline(t *testing.T) {
	// (10 misses, 40 window)~ is reachable with the eq. 13 statistic.
	p, g := whPipeline(t, wh.MissConstraint{Misses: 10, Window: 40})
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatalf("schedule fails its feasibility audit: %v", err)
	}
	last, _ := g.TaskByName("stage2")
	g10, ok, err := SatisfiedWH(p, s, last.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stage2 has networked predecessors")
	}
	if !wh.SufficientlyImpliesMiss(g10, wh.MissConstraint{Misses: 10, Window: 40}) {
		t.Errorf("guarantee %v does not imply the requirement", g10)
	}
}

func TestSolveWeaklyHardStricterCostsMore(t *testing.T) {
	// Tightening the miss budget raises χ and therefore makespan (the
	// fig. 2 mechanism).
	pLoose, _ := whPipeline(t, wh.MissConstraint{Misses: 16, Window: 40})
	pTight, _ := whPipeline(t, wh.MissConstraint{Misses: 8, Window: 40})
	sLoose, err := Solve(pLoose)
	if err != nil {
		t.Fatal(err)
	}
	sTight, err := Solve(pTight)
	if err != nil {
		t.Fatal(err)
	}
	if sTight.Makespan < sLoose.Makespan {
		t.Errorf("tighter weakly-hard target reduced makespan: %d vs %d", sTight.Makespan, sLoose.Makespan)
	}
	if sTight.BusTime < sLoose.BusTime {
		t.Errorf("tighter weakly-hard target reduced bus time")
	}
}

func TestSolveWeaklyHardWindowUnreachable(t *testing.T) {
	// Requiring a 10000-wide window exceeds what MaxNTX=3 can provide
	// (eq. 13 windows are 20n).
	p, _ := whPipeline(t, wh.MissConstraint{Misses: 5, Window: 10000})
	p.MaxNTX = 3
	if _, err := Solve(p); !errors.Is(err, ErrUnsat) {
		t.Errorf("unreachable window: %v, want ErrUnsat", err)
	}
}

func TestSolveMIMOWeaklyHard(t *testing.T) {
	g, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		t.Fatal(err)
	}
	cons := make(map[dag.TaskID]wh.MissConstraint)
	for _, a := range apps.Actuators(g) {
		cons[a] = wh.MissConstraint{Misses: 20, Window: 40}
	}
	p := &Problem{
		App:       g,
		Params:    glossy.DefaultParams(),
		Diameter:  4,
		Mode:      WeaklyHard,
		WHStat:    glossy.SyntheticWH{},
		WHCons:    cons,
		GreedyChi: true, // MIMO has ~14 floods; keep the test fast
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatalf("MIMO schedule invalid: %v", err)
	}
	for _, a := range apps.Actuators(g) {
		guar, ok, err := SatisfiedWH(p, s, a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("actuator %d has no networked predecessors", a)
		}
		if !wh.SufficientlyImpliesMiss(guar, cons[a]) {
			t.Errorf("actuator %d guarantee %v misses requirement %v", a, guar, cons[a])
		}
	}
}

func TestSolveMessageFreeApp(t *testing.T) {
	g := dag.New()
	g.MustAddTask("only", "n0", 750)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 1,
		Mode: Soft, SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rounds) != 0 || s.Makespan != 750 {
		t.Errorf("message-free app: rounds=%d makespan=%d", len(s.Rounds), s.Makespan)
	}
}

func TestSolveStructureValidation(t *testing.T) {
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := g.TaskByName("stage0")
	second, _ := g.TaskByName("stage1")
	p := &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{
			first.ID:  0.5, // upstream weaker than downstream: invalid
			second.ID: 0.9,
		},
	}
	if _, err := Solve(p); !errors.Is(err, ErrStructure) {
		t.Errorf("structure violation: %v, want ErrStructure", err)
	}
}

func TestSolveWHStructureValidation(t *testing.T) {
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := g.TaskByName("stage0")
	second, _ := g.TaskByName("stage1")
	p := &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2,
		Mode:   WeaklyHard,
		WHStat: glossy.SyntheticWH{},
		WHCons: map[dag.TaskID]wh.MissConstraint{
			first.ID:  {Misses: 10, Window: 20}, // weaker than downstream
			second.ID: {Misses: 1, Window: 20},
		},
	}
	if _, err := Solve(p); !errors.Is(err, ErrStructure) {
		t.Errorf("WH structure violation: %v, want ErrStructure", err)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	if _, err := Solve(&Problem{}); err == nil {
		t.Error("nil app accepted")
	}
	g, _ := apps.Pipeline(2, 100, 4)
	p := &Problem{App: g, Params: glossy.DefaultParams(), Diameter: 0, Mode: Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9}}
	if _, err := Solve(p); err == nil {
		t.Error("zero diameter accepted")
	}
	p2 := &Problem{App: g, Params: glossy.DefaultParams(), Diameter: 2, Mode: Soft}
	if _, err := Solve(p2); !errors.Is(err, ErrNoStatistic) {
		t.Errorf("missing statistic: %v", err)
	}
	p3 := &Problem{App: g, Params: glossy.DefaultParams(), Diameter: 2, Mode: Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{dag.TaskID(0): 1.5}}
	if _, err := Solve(p3); !errors.Is(err, ErrBadConstraint) {
		t.Errorf("bad probability: %v", err)
	}
}

func TestSolveRejectsMaxRoundsBelowMinimum(t *testing.T) {
	p, _ := softPipeline(t, 0.9)
	p.MaxRounds = 1 // pipeline needs 2 rounds
	if _, err := Solve(p); err == nil {
		t.Error("MaxRounds below the line-graph minimum accepted")
	}
}

func TestSolveTinySolverBudget(t *testing.T) {
	// A 1-node timing budget may still find a feasible (suboptimal)
	// placement — the pipeline's earliest schedule happens to resolve
	// all disjunctions — but whatever comes back must pass the audit and
	// never beat the unbounded optimum.
	p, g := softPipeline(t, 0.9)
	ref, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := softPipeline(t, 0.9)
	p2.SolverNodes = 1
	s, err := Solve(p2)
	if err != nil {
		return // running out of budget is an acceptable outcome
	}
	if auditErr := s.Validate(g); auditErr != nil {
		t.Fatalf("budget-limited schedule fails audit: %v", auditErr)
	}
	if s.Makespan < ref.Makespan {
		t.Errorf("budget-limited makespan %d beats the proven optimum %d", s.Makespan, ref.Makespan)
	}
}

func TestSatisfiedSoftMatchesManualProduct(t *testing.T) {
	p, g := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage2")
	// Manual product over both message slots and both beacons.
	prod := 1.0
	for _, r := range s.Rounds {
		prod *= p.SoftStat.SuccessProb(r.BeaconNTX)
		for _, sl := range r.Slots {
			prod *= p.SoftStat.SuccessProb(sl.NTX)
		}
	}
	got, err := SatisfiedSoft(p, s, last.ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-prod) > 1e-12 {
		t.Errorf("SatisfiedSoft = %v, manual product %v", got, prod)
	}
}

func TestScheduleStringRenders(t *testing.T) {
	p, _ := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	if len(out) == 0 {
		t.Error("empty schedule rendering")
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan is at least critical-path WCET plus all bus time (rounds
	// are global blackouts on a pipeline's single path).
	p, g := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan < g.CriticalPathWCET()+s.BusTime {
		t.Errorf("makespan %d below critical path %d + bus %d",
			s.Makespan, g.CriticalPathWCET(), s.BusTime)
	}
}
