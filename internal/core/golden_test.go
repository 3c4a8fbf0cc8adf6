package core

import (
	"errors"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// Golden regression values. The incremental STN engine maintains the same
// unique least solution the seed's batch Bellman-Ford computed, so solver
// results — and everything downstream in core — must stay bit-identical
// across engine changes. These pins were captured from the seed
// implementation; a drift in any of them means the engine no longer
// computes the least solution (or search order leaked into results).
func TestGoldenSolutionsStable(t *testing.T) {
	g, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		t.Fatal(err)
	}
	cons := make(map[dag.TaskID]wh.MissConstraint)
	for _, a := range apps.Actuators(g) {
		cons[a] = wh.MissConstraint{Misses: 24, Window: 40}
	}

	check := func(name string, s *Schedule, makespan, bustime int64, optimal bool, rounds int) {
		t.Helper()
		if s.Makespan != makespan || s.BusTime != bustime || s.Optimal != optimal || len(s.Rounds) != rounds {
			t.Errorf("%s: makespan=%d bustime=%d optimal=%v rounds=%d, want %d/%d/%v/%d",
				name, s.Makespan, s.BusTime, s.Optimal, len(s.Rounds),
				makespan, bustime, optimal, rounds)
		}
	}

	s, err := Solve(&Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 4,
		Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("MIMO exact-chi", s, 100760, 97956, true, 2)

	g2, err := apps.Pipeline(4, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	sink := g2.Sinks()[0]
	s2, err := Solve(&Problem{
		App: g2, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{sink: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	check("Soft pipeline", s2, 36734, 34728, true, 3)

	s3, err := Solve(&Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 4,
		Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
		GreedyChi: true, GreedyPlacement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("MIMO greedy", s3, 101624, 98820, false, 2)
}

// TestMinNTXFloor pins the χ-domain floor semantics: every flood —
// message slots and round beacons alike — respects MinNTX, the makespan
// can only grow under a raised floor, and an empty domain
// (MinNTX > MaxNTX) reports ErrUnsat so the session layer treats it as a
// failed re-solve, not a configuration bug.
func TestMinNTXFloor(t *testing.T) {
	g, err := apps.Pipeline(4, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	sink := g.Sinks()[0]
	mk := func(minNTX int) *Problem {
		return &Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 3,
			Mode:     Soft,
			SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
			SoftCons: map[dag.TaskID]float64{sink: 0.9},
			MinNTX:   minNTX,
		}
	}
	loose, err := Solve(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Solve(mk(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tight.Rounds {
		if r.BeaconNTX < 4 {
			t.Errorf("round %d beacon NTX = %d under MinNTX 4", r.Index, r.BeaconNTX)
		}
		for _, sl := range r.Slots {
			if sl.NTX < 4 {
				t.Errorf("message %d slot NTX = %d under MinNTX 4", sl.Msg, sl.NTX)
			}
		}
	}
	if tight.Makespan < loose.Makespan {
		t.Errorf("raising the χ floor shrank the makespan: %d < %d", tight.Makespan, loose.Makespan)
	}
	if _, err := Solve(mk(DefaultMaxNTX + 1)); !errors.Is(err, ErrUnsat) {
		t.Errorf("MinNTX > MaxNTX err = %v, want ErrUnsat", err)
	}
}
