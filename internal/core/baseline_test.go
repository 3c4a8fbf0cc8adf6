package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

func TestGlobalNTXBaselineFeasible(t *testing.T) {
	p, g := softPipeline(t, 0.9)
	s, err := GlobalNTXBaseline(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); err != nil {
		t.Fatalf("baseline schedule invalid: %v", err)
	}
	// All floods share one N_TX.
	first := s.Rounds[0].BeaconNTX
	for _, r := range s.Rounds {
		if r.BeaconNTX != first {
			t.Errorf("baseline beacon χ differs: %d vs %d", r.BeaconNTX, first)
		}
		for _, sl := range r.Slots {
			if sl.NTX != first {
				t.Errorf("baseline slot χ differs: %d vs %d", sl.NTX, first)
			}
		}
	}
	last, _ := g.TaskByName("stage2")
	if got, err := SatisfiedSoft(p, s, last.ID); err != nil || got < 0.9 {
		t.Errorf("baseline misses the soft target: %v (err %v)", got, err)
	}
}

func TestNETDAGNeverWorseThanBaselineSoft(t *testing.T) {
	for _, target := range []float64{0.5, 0.8, 0.9, 0.99, 0.999} {
		p, _ := softPipeline(t, target)
		netdag, err := Solve(p)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		base, err := GlobalNTXBaseline(p)
		if err != nil {
			t.Fatalf("target %v baseline: %v", target, err)
		}
		if netdag.Makespan > base.Makespan {
			t.Errorf("target %v: NETDAG %d worse than baseline %d", target, netdag.Makespan, base.Makespan)
		}
		if netdag.BusTime > base.BusTime {
			t.Errorf("target %v: NETDAG bus %d worse than baseline %d", target, netdag.BusTime, base.BusTime)
		}
	}
}

func TestNETDAGNeverWorseThanBaselineWH(t *testing.T) {
	// MinNTX 7 lies above the χ the constraints need, so both schedulers
	// must raise every flood to it.
	for _, minNTX := range []int{0, 7} {
		p := benchMIMOProblem(t, true)
		p.MinNTX = minNTX
		netdag, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := GlobalNTXBaseline(p)
		if err != nil {
			t.Fatal(err)
		}
		if netdag.BusTime > base.BusTime {
			t.Errorf("MinNTX %d: NETDAG bus time %d worse than global-N_TX baseline %d",
				minNTX, netdag.BusTime, base.BusTime)
		}
		for _, r := range base.Rounds {
			if r.BeaconNTX < p.MinNTX {
				t.Errorf("MinNTX %d: baseline beacon of round %d at χ = %d", minNTX, r.Index, r.BeaconNTX)
			}
			for _, sl := range r.Slots {
				if sl.NTX < p.MinNTX {
					t.Errorf("MinNTX %d: baseline slot of message %d at χ = %d", minNTX, sl.Msg, sl.NTX)
				}
			}
		}
	}
}

func TestBaselineUnsat(t *testing.T) {
	p, _ := softPipeline(t, 0.9999999)
	p.SoftStat = glossy.BernoulliSoft{PerTX: 0.3}
	p.MaxNTX = 2
	if _, err := GlobalNTXBaseline(p); err == nil {
		t.Error("baseline satisfied an unreachable target")
	}

	// A constraint no χ meets on any round assignment fails before any
	// search, naming its task, at every entry point: under a cap that
	// prunes every assignment too.
	window := func() (*Problem, string) {
		p := benchMIMOProblem(t, false)
		for a := range p.WHCons {
			p.WHCons[a] = wh.MissConstraint{Misses: 24, Window: 1000}
		}
		return p, "act0"
	}
	certain := func() (*Problem, string) {
		p, _ := softPipeline(t, 1)
		return p, "stage2"
	}
	entries := []struct {
		name string
		run  func(*Problem) error
	}{
		{"Solve", func(p *Problem) error { _, err := Solve(p); return err }},
		{"Solve/cap", func(p *Problem) error { p.MakespanCap = 1; _, err := Solve(p); return err }},
		{"GlobalNTXBaseline", func(p *Problem) error { _, err := GlobalNTXBaseline(p); return err }},
		{"ParetoFront", func(p *Problem) error { _, err := ParetoFront(p); return err }},
	}
	for _, row := range []struct {
		name string
		mk   func() (*Problem, string)
	}{{"window", window}, {"soft target 1", certain}} {
		for _, e := range entries {
			p, task := row.mk()
			err := e.run(p)
			if !errors.Is(err, ErrUnsat) || !strings.Contains(fmt.Sprint(err), fmt.Sprintf("task %q", task)) {
				t.Errorf("%s, %s: err = %v, want ErrUnsat naming task %q", row.name, e.name, err, task)
			}
		}
	}
}
