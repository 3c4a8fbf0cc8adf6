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

func TestParseObjectiveRoundTrip(t *testing.T) {
	for _, o := range []Objective{ObjectiveMakespan, ObjectiveEnergy, ObjectivePareto} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if got, err := ParseObjective(""); err != nil || got != ObjectiveMakespan {
		t.Errorf("empty spelling: %v, %v; want ObjectiveMakespan", got, err)
	}
	if _, err := ParseObjective("latency"); err == nil {
		t.Error("unknown spelling should error")
	}
}

func TestSolveRejectsParetoObjective(t *testing.T) {
	p, _ := softPipeline(t, 0.9)
	p.Objective = ObjectivePareto
	if _, err := Solve(p); err == nil {
		t.Fatal("Solve accepted ObjectivePareto; want an error directing to ParetoFront")
	}
}

func TestEnergyPCComputedUnderMakespanObjective(t *testing.T) {
	p, _ := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.EnergyPC <= 0 {
		t.Fatalf("EnergyPC = %d, want positive", s.EnergyPC)
	}
	if got := p.scheduleEnergyPC(s); got != s.EnergyPC {
		t.Errorf("EnergyPC %d does not match recomputation %d", s.EnergyPC, got)
	}
	// Cross-check the integer model against first principles: radio-on
	// charge is bounded by BusTime at the larger current, and total charge
	// by makespan at the larger current.
	maxI := p.EnergyParams.RXCurrentUA
	if p.EnergyParams.TXCurrentUA > maxI {
		maxI = p.EnergyParams.TXCurrentUA
	}
	if s.EnergyPC > s.Makespan*maxI {
		t.Errorf("EnergyPC %d exceeds makespan × max current %d", s.EnergyPC, s.Makespan*maxI)
	}
}

// TestEnergyObjectiveNeverWorseThanMakespanObjective: the energy-optimal
// schedule's charge is a lower bound on any feasible schedule's charge,
// in particular the makespan-optimal one's.
func TestEnergyObjectiveNeverWorseThanMakespanObjective(t *testing.T) {
	for name, mk := range map[string]func(testing.TB) *Problem{
		"soft-pipeline": func(tb testing.TB) *Problem {
			p, _ := softPipeline(tb.(*testing.T), 0.9)
			return p
		},
		"wh-pipeline": func(tb testing.TB) *Problem {
			p, _ := whPipeline(tb.(*testing.T), wh.MissConstraint{Misses: 10, Window: 40})
			return p
		},
		"mimo": func(tb testing.TB) *Problem {
			g, err := apps.MIMO(apps.MIMOConfig{
				Sensors: 2, Controllers: 2, Actuators: 2,
				SensorWCET: 400, CtrlWCET: 800, ActWCET: 300,
				SensorWidth: 8, CtrlWidth: 4, Seed: 7,
			})
			if err != nil {
				tb.Fatal(err)
			}
			cons := map[dag.TaskID]wh.MissConstraint{}
			for _, task := range g.Tasks() {
				if len(g.Succs(task.ID)) == 0 {
					cons[task.ID] = wh.MissConstraint{Misses: 12, Window: 40}
				}
			}
			return &Problem{
				App: g, Params: glossy.DefaultParams(), Diameter: 3,
				Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			pm := mk(t)
			sm, err := Solve(pm)
			if err != nil {
				t.Fatal(err)
			}
			pe := mk(t)
			pe.Objective = ObjectiveEnergy
			se, err := Solve(pe)
			if err != nil {
				t.Fatal(err)
			}
			if err := se.Validate(pe.App); err != nil {
				t.Fatalf("energy-optimal schedule fails feasibility audit: %v", err)
			}
			if se.EnergyPC > sm.EnergyPC {
				t.Errorf("energy objective found charge %d pC, worse than makespan objective's %d pC",
					se.EnergyPC, sm.EnergyPC)
			}
			if se.Makespan < sm.Makespan {
				t.Errorf("energy-optimal makespan %d beats the proven makespan optimum %d",
					se.Makespan, sm.Makespan)
			}
		})
	}
}

// TestEnergyObjectiveDeterministicAcrossWorkers: the winner under
// ObjectiveEnergy is identical for sequential and parallel searches and
// with the energy bound ablated — the bound (and parallelism) changes
// speed only.
func TestEnergyObjectiveDeterministicAcrossWorkers(t *testing.T) {
	g, err := apps.MIMO(apps.MIMOConfig{
		Sensors: 2, Controllers: 2, Actuators: 2,
		SensorWCET: 400, CtrlWCET: 800, ActWCET: 300,
		SensorWidth: 8, CtrlWidth: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := map[dag.TaskID]wh.MissConstraint{}
	for _, task := range g.Tasks() {
		if len(g.Succs(task.ID)) == 0 {
			cons[task.ID] = wh.MissConstraint{Misses: 12, Window: 40}
		}
	}
	mk := func(workers int, noBound bool) *Schedule {
		p := &Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 3,
			Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
			Objective: ObjectiveEnergy, Workers: workers,
			NoEnergyBound: noBound,
		}
		s, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := mk(1, false)
	for _, cfg := range []struct {
		name    string
		workers int
		noBound bool
	}{
		{"workers4", 4, false},
		{"workers1-nobound", 1, true},
		{"workers4-nobound", 4, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s := mk(cfg.workers, cfg.noBound)
			if s.EnergyPC != ref.EnergyPC || s.Makespan != ref.Makespan {
				t.Errorf("(energy, makespan) = (%d, %d); sequential reference (%d, %d)",
					s.EnergyPC, s.Makespan, ref.EnergyPC, ref.Makespan)
			}
			if len(s.Assign) != len(ref.Assign) {
				t.Fatalf("assignment length %d vs %d", len(s.Assign), len(ref.Assign))
			}
			for m := range s.Assign {
				if s.Assign[m] != ref.Assign[m] {
					t.Errorf("message %d assigned to round %d, reference %d", m, s.Assign[m], ref.Assign[m])
				}
			}
		})
	}
}

func TestMakespanCapConstrains(t *testing.T) {
	p, _ := softPipeline(t, 0.9)
	opt, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Cap at the optimum: still feasible (the cap is inclusive).
	pAt, _ := softPipeline(t, 0.9)
	pAt.MakespanCap = opt.Makespan
	sAt, err := Solve(pAt)
	if err != nil {
		t.Fatalf("cap at the proven optimum must stay feasible: %v", err)
	}
	if sAt.Makespan != opt.Makespan {
		t.Errorf("capped solve found %d, want the optimum %d", sAt.Makespan, opt.Makespan)
	}
	// Cap below the optimum: unsat.
	pBelow, _ := softPipeline(t, 0.9)
	pBelow.MakespanCap = opt.Makespan - 1
	if _, err := Solve(pBelow); !errors.Is(err, ErrUnsat) {
		t.Errorf("cap below the optimum: %v, want ErrUnsat", err)
	}
	// Negative cap is rejected.
	pNeg, _ := softPipeline(t, 0.9)
	pNeg.MakespanCap = -1
	if _, err := Solve(pNeg); err == nil {
		t.Error("negative MakespanCap accepted")
	}
}

func TestGuaranteeSlack(t *testing.T) {
	p, g := softPipeline(t, 0.9)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	slack, err := GuaranteeSlack(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if slack < 0 {
		t.Errorf("feasible schedule reports negative slack %v", slack)
	}
	if math.IsInf(slack, 1) {
		t.Error("constrained task should yield finite slack")
	}
	// Unconstrained problem: +Inf.
	pu := &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode: Soft, SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
	}
	su, err := Solve(pu)
	if err != nil {
		t.Fatal(err)
	}
	if slack, err := GuaranteeSlack(pu, su); err != nil || !math.IsInf(slack, 1) {
		t.Errorf("unconstrained slack = %v, %v; want +Inf", slack, err)
	}
}
