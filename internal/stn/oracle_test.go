package stn

// The seed implementation of this package computed the least solution
// from scratch with Bellman-Ford on every Earliest call. That batch
// algorithm is retained here as the differential-testing oracle: the
// incremental engine must agree with it — on distances and on
// consistency — after every AddMin/AddMax/NewVar/Mark/Reset, including
// sequences that pass through inconsistent states.

import (
	"errors"
	"math/rand"
	"testing"
)

// batchEarliest is the seed Bellman-Ford longest-path relaxation over the
// network's current constraint set, O(V·E), independent of the
// incremental engine's maintained state.
func batchEarliest(s *STN) ([]int64, error) {
	n := len(s.vs)
	type bedge struct {
		u, v VarID
		w    int64
	}
	var edges []bedge
	for u := range s.out {
		for _, a := range s.out[u] {
			edges = append(edges, bedge{u: VarID(u), v: a.v, w: a.w})
		}
	}
	const neg = int64(-1) << 62
	d := make([]int64, n)
	for i := 1; i < n; i++ {
		d[i] = neg
	}
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range edges {
			if d[e.u] == neg {
				continue
			}
			if nd := d[e.u] + e.w; nd > d[e.v] {
				d[e.v] = nd
				changed = true
			}
		}
		if !changed {
			return d, nil
		}
	}
	return nil, ErrInconsistent
}

// checkAgainstOracle asserts that the incremental engine and the batch
// oracle agree on consistency and, when consistent, on every distance
// (via Dist, Earliest and EarliestInto).
func checkAgainstOracle(t *testing.T, s *STN, buf []int64) []int64 {
	t.Helper()
	want, wantErr := batchEarliest(s)
	got, gotErr := s.Earliest()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("consistency disagreement: oracle err=%v, engine err=%v", wantErr, gotErr)
	}
	if s.Consistent() != (wantErr == nil) {
		t.Fatalf("Consistent() = %v but oracle err = %v", s.Consistent(), wantErr)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, ErrInconsistent) {
			t.Fatalf("engine error = %v, want ErrInconsistent", gotErr)
		}
		return buf
	}
	if len(got) != len(want) {
		t.Fatalf("Earliest length %d, oracle %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("Earliest[%d] = %d, oracle %d", v, got[v], want[v])
		}
		if dv := s.Dist(VarID(v)); dv != want[v] {
			t.Fatalf("Dist(%d) = %d, oracle %d", v, dv, want[v])
		}
	}
	buf, err := s.EarliestInto(buf)
	if err != nil {
		t.Fatalf("EarliestInto: %v", err)
	}
	for v := range want {
		if buf[v] != want[v] {
			t.Fatalf("EarliestInto[%d] = %d, oracle %d", v, buf[v], want[v])
		}
	}
	return buf
}

// TestDifferentialRandomSequences drives long random
// NewVar/AddMin/AddMax/Mark/Reset sequences — deliberately including
// inconsistent systems and Resets across NewVar — and asserts the
// incremental engine matches the batch oracle after every single
// operation.
func TestDifferentialRandomSequences(t *testing.T) {
	const (
		trials = 150
		ops    = 80
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		s := New()
		var buf []int64
		type savepoint struct {
			mark  int
			nvars int
		}
		var marks []savepoint
		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case r < 0.15:
				s.NewVar("v")
			case r < 0.60:
				u := VarID(rng.Intn(s.NumVars()))
				v := VarID(rng.Intn(s.NumVars()))
				w := int64(rng.Intn(61) - 30)
				if rng.Float64() < 0.5 {
					s.AddMin(v, u, w)
				} else {
					s.AddMax(v, u, w)
				}
			case r < 0.75:
				marks = append(marks, savepoint{mark: s.Mark(), nvars: s.NumVars()})
			default:
				if len(marks) == 0 {
					continue
				}
				// Reset to a random saved mark (dropping the deeper ones),
				// then check the variable count rolled back too.
				i := rng.Intn(len(marks))
				sp := marks[i]
				marks = marks[:i]
				s.Reset(sp.mark)
				if s.NumVars() != sp.nvars {
					t.Fatalf("trial %d op %d: NumVars after Reset = %d, want %d",
						trial, op, s.NumVars(), sp.nvars)
				}
			}
			buf = checkAgainstOracle(t, s, buf)
		}
		// Unwind everything: the network must return to its pristine state.
		s.Reset(0)
		if s.NumVars() != 1 || !s.Consistent() {
			t.Fatalf("trial %d: Reset(0) left %d vars, consistent=%v", trial, s.NumVars(), s.Consistent())
		}
		if s.Dist(Zero) != 0 {
			t.Fatalf("trial %d: Reset(0) left Dist(Zero)=%d", trial, s.Dist(Zero))
		}
	}
}

// TestDifferentialVariableChurn cross-checks the engine against the
// oracle after every operation of random programs that create and roll
// back more variables than the arena carves (24 ordinary ones), many
// times over, so most NewVars take over the adjacency list of a
// rolled-back variable, some of them grown past their carve. A list
// that kept a stale arc would show as a distance the oracle, which
// reads every list, disagrees with.
func TestDifferentialVariableChurn(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		s := New()
		var buf []int64
		base := s.NewVar("base")
		s.AddMin(base, Zero, int64(rng.Intn(20)))
		buf = checkAgainstOracle(t, s, buf)
		fixed := s.Mark()
		created, peak := 0, 0
		for cycle := 0; cycle < 12; cycle++ {
			inner := -1
			for op := 0; op < 60; op++ {
				switch r := rng.Float64(); {
				case r < 0.45:
					v := s.NewVar("v")
					created++
					// An arc out of the new variable, and sometimes a fan of
					// them that outgrows its carve.
					for k := 0; k < 1+rng.Intn(3)*rng.Intn(6); k++ {
						s.AddMin(VarID(1+rng.Intn(s.NumVars()-1)), v, int64(rng.Intn(41)-20))
					}
				case r < 0.85:
					u := VarID(rng.Intn(s.NumVars()))
					v := VarID(rng.Intn(s.NumVars()))
					s.AddMin(v, u, int64(rng.Intn(41)-20))
				case r < 0.92:
					inner = s.Mark()
				default:
					if inner >= 0 {
						s.Reset(inner)
						inner = -1
					}
				}
				peak = max(peak, s.NumVars())
				buf = checkAgainstOracle(t, s, buf)
			}
			s.Reset(fixed)
			if s.NumVars() != 2 {
				t.Fatalf("trial %d cycle %d: Reset left %d vars", trial, cycle, s.NumVars())
			}
			buf = checkAgainstOracle(t, s, buf)
		}
		if created <= 24 || peak <= 24 {
			t.Fatalf("trial %d: created %d variables, at most %d at once; the arena is never outgrown", trial, created, peak)
		}
	}
}

// TestDifferentialInconsistentRecovery focuses the differential check on
// the trail's hardest job: restoring exact distances after the engine
// passed through an inconsistent state, repeatedly.
func TestDifferentialInconsistentRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		vars := make([]VarID, 6)
		for i := range vars {
			vars[i] = s.NewVar("v")
		}
		// A consistent base: a random chain.
		for i := 1; i < len(vars); i++ {
			s.AddMin(vars[i], vars[i-1], int64(rng.Intn(20)))
		}
		var buf []int64
		buf = checkAgainstOracle(t, s, buf)
		for round := 0; round < 20; round++ {
			mark := s.Mark()
			// Push constraints until the system (usually) breaks.
			for k := 0; k < 4; k++ {
				u := vars[rng.Intn(len(vars))]
				v := vars[rng.Intn(len(vars))]
				s.AddMax(v, u, int64(rng.Intn(10)-5))
				buf = checkAgainstOracle(t, s, buf)
			}
			s.Reset(mark)
			if !s.Consistent() {
				t.Fatalf("trial %d round %d: inconsistent after Reset", trial, round)
			}
			buf = checkAgainstOracle(t, s, buf)
		}
	}
}
