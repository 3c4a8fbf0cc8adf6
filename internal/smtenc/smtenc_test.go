package smtenc

import (
	"strings"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

func whProblem(t testing.TB) (*core.Problem, []int) {
	t.Helper()
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage2")
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3, MaxNTX: 6,
		Mode:   core.WeaklyHard,
		WHStat: glossy.SyntheticWH{},
		WHCons: map[dag.TaskID]wh.MissConstraint{last.ID: {Misses: 10, Window: 40}},
	}
	lg, err := dag.NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return p, lg.EarliestAssignment()
}

func TestEncodeWeaklyHard(t *testing.T) {
	p, assign := whProblem(t)
	var b strings.Builder
	if err := Encode(&b, p, assign); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"(set-logic QF_LIA)",
		"(declare-const start_stage0 Int)",
		"(declare-const chi_msg_0 Int)",
		"(declare-const chi_beacon_0 Int)",
		"(declare-const makespan Int)",
		"(assert (and (>= chi_msg_0 1) (<= chi_msg_0 6)))",
		"eq.10 misses for stage2",
		"eq.10 window for stage2",
		"(minimize makespan)",
		"(check-sat)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("encoding missing %q", want)
		}
	}
	if bal := balance(out); bal != 0 {
		t.Errorf("unbalanced parentheses: %+d", bal)
	}

	// Encode does not normalize the problem, so it reads MinNTX itself:
	// every χ domain is MinNTX..MaxNTX, as in the native solver.
	p.MinNTX, p.MaxNTX = 7, 8
	b.Reset()
	if err := Encode(&b, p, assign); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(assert (and (>= chi_msg_0 7) (<= chi_msg_0 8)))",
		"(assert (and (>= chi_beacon_0 7) (<= chi_beacon_0 8)))",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("MinNTX 7: encoding missing %q", want)
		}
	}
}

func TestEncodeSoft(t *testing.T) {
	g, err := apps.Pipeline(2, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage1")
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2, MaxNTX: 4,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{last.ID: 0.9},
	}
	lg, err := dag.NewLineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Encode(&b, p, lg.EarliestAssignment()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "eq.6 for stage1") {
		t.Error("soft constraint missing")
	}
	if !strings.Contains(out, "(ite (= chi_msg_0 1)") {
		t.Error("λ lookup table missing")
	}
	if bal := balance(out); bal != 0 {
		t.Errorf("unbalanced parentheses: %+d", bal)
	}
}

func TestEncodeValidation(t *testing.T) {
	if err := Encode(&strings.Builder{}, nil, nil); err == nil {
		t.Error("nil problem accepted")
	}
	p, _ := whProblem(t)
	if err := Encode(&strings.Builder{}, p, []int{0}); err == nil {
		t.Error("short assignment accepted")
	}
	if err := Encode(&strings.Builder{}, p, []int{-1, 0}); err == nil {
		t.Error("negative round accepted")
	}
}

// TestEncodingConsistentWithNativeSolver checks the encoder and the
// native scheduler agree on the feasibility boundary: a requirement the
// native solver rejects as unsatisfiable yields an encoding whose miss
// budget line is impossible with the tabulated statistic (every flood
// contributes at least the MaxNTX-level misses).
func TestEncodingConsistentWithNativeSolver(t *testing.T) {
	p, assign := whProblem(t)
	// Count pred floods for the constrained task (2 messages + 2
	// beacons on the ASAP assignment).
	last, _ := p.App.TaskByName("stage2")
	preds := predTerms(p.App, assign, last.ID)
	minMiss := p.WHStat.MissConstraint(p.MaxNTX).Misses * len(preds)
	// The native solver must agree: budgets below minMiss are unsat,
	// budgets at or above are sat (window permitting).
	p.WHCons[last.ID] = wh.MissConstraint{Misses: minMiss - 1, Window: 40}
	if _, err := core.Solve(p); err == nil {
		t.Errorf("native solver accepted a budget below the statistic's floor (%d)", minMiss-1)
	}
	p.WHCons[last.ID] = wh.MissConstraint{Misses: minMiss, Window: 40}
	if _, err := core.Solve(p); err != nil {
		t.Errorf("native solver rejected the floor budget %d: %v", minMiss, err)
	}
}

// balance returns the parenthesis balance ignoring comment lines.
func balance(s string) int {
	bal := 0
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		for _, r := range line {
			switch r {
			case '(':
				bal++
			case ')':
				bal--
			}
		}
	}
	return bal
}
