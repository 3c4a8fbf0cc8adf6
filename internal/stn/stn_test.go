package stn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEarliestSimpleChain(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	c := s.NewVar("c")
	s.AddMin(b, a, 10) // b >= a + 10
	s.AddMin(c, b, 5)  // c >= b + 5
	d, err := s.Earliest()
	if err != nil {
		t.Fatal(err)
	}
	if d[Zero] != 0 || d[a] != 0 || d[b] != 10 || d[c] != 15 {
		t.Errorf("earliest = %v, want [0 0 10 15]", d)
	}
}

func TestEarliestTakesMaxOverPredecessors(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	join := s.NewVar("join")
	s.AddMin(a, Zero, 3)
	s.AddMin(b, Zero, 8)
	s.AddMin(join, a, 2)
	s.AddMin(join, b, 2)
	d, err := s.Earliest()
	if err != nil {
		t.Fatal(err)
	}
	if d[join] != 10 {
		t.Errorf("join = %d, want 10 (max over predecessors)", d[join])
	}
}

func TestInconsistencyDetected(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	s.AddMin(b, a, 5) // b >= a + 5
	s.AddMax(b, a, 3) // b <= a + 3
	if _, err := s.Earliest(); !errors.Is(err, ErrInconsistent) {
		t.Errorf("Earliest = %v, want ErrInconsistent", err)
	}
	if s.Consistent() {
		t.Error("Consistent returned true on a contradictory system")
	}
}

func TestAddMaxAsDeadline(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	end := s.NewVar("end")
	s.AddMin(a, Zero, 4)
	s.AddMin(end, a, 10)
	s.AddMax(end, Zero, 20) // deadline: end <= 20
	d, err := s.Earliest()
	if err != nil {
		t.Fatal(err)
	}
	if d[end] != 14 {
		t.Errorf("end = %d, want 14", d[end])
	}
	// Tighten the deadline past feasibility.
	s.AddMax(end, Zero, 13)
	if _, err := s.Earliest(); !errors.Is(err, ErrInconsistent) {
		t.Errorf("over-tight deadline not detected: %v", err)
	}
}

func TestMarkReset(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	s.AddMin(b, a, 7)
	mark := s.Mark()
	s.AddMin(a, Zero, 100)
	d, err := s.Earliest()
	if err != nil {
		t.Fatal(err)
	}
	if d[b] != 107 {
		t.Errorf("with extra constraint b = %d, want 107", d[b])
	}
	s.Reset(mark)
	d, err = s.Earliest()
	if err != nil {
		t.Fatal(err)
	}
	if d[b] != 7 {
		t.Errorf("after Reset b = %d, want 7", d[b])
	}
}

func TestResetBounds(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("Reset with bad mark did not panic")
		}
	}()
	s.Reset(99)
}

func TestNames(t *testing.T) {
	s := New()
	a := s.NewVar("alpha")
	if s.Name(a) != "alpha" || s.Name(Zero) != "zero" {
		t.Errorf("names wrong: %q, %q", s.Name(a), s.Name(Zero))
	}
	if s.Name(VarID(99)) == "" {
		t.Error("out-of-range name should still render")
	}
	if s.NumVars() != 2 {
		t.Errorf("NumVars = %d, want 2", s.NumVars())
	}
}

func TestAddMinUnknownVarPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("AddMin with unknown var did not panic")
		}
	}()
	s.AddMin(VarID(5), Zero, 1)
}

func TestResetAcrossNewVarRollsBackVariable(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	s.AddMin(a, Zero, 5)
	mark := s.Mark()
	b := s.NewVar("b")
	c := s.NewVar("c")
	s.AddMin(b, a, 10)
	s.AddMin(c, b, 3)
	if s.NumVars() != 4 || s.Dist(c) != 18 {
		t.Fatalf("before Reset: NumVars=%d Dist(c)=%d", s.NumVars(), s.Dist(c))
	}
	s.Reset(mark)
	if s.NumVars() != 2 {
		t.Fatalf("Reset did not remove variables: NumVars=%d, want 2", s.NumVars())
	}
	if s.Dist(a) != 5 || !s.Consistent() {
		t.Fatalf("after Reset: Dist(a)=%d consistent=%v", s.Dist(a), s.Consistent())
	}
	// The rolled-back IDs are invalid again: constraining them must panic,
	// not silently corrupt the network (the seed's footgun).
	defer func() {
		if recover() == nil {
			t.Error("AddMin on a rolled-back variable did not panic")
		}
	}()
	s.AddMin(b, a, 1)
}

func TestResetAcrossNewVarThenRecreate(t *testing.T) {
	s := New()
	mark := s.Mark()
	for round := 0; round < 3; round++ {
		v := s.NewVar("v")
		w := s.NewVar("w")
		s.AddMin(w, v, int64(10*(round+1)))
		if s.Dist(w) != int64(10*(round+1)) {
			t.Fatalf("round %d: Dist(w)=%d", round, s.Dist(w))
		}
		s.Reset(mark)
		if s.NumVars() != 1 {
			t.Fatalf("round %d: NumVars=%d after Reset", round, s.NumVars())
		}
	}
}

func TestWeightSaturation(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	// A weight beyond MaxWeight saturates instead of wrapping later sums.
	s.AddMin(b, a, math.MaxInt64)
	if !s.Consistent() {
		t.Fatal("saturated weight made the system inconsistent")
	}
	if s.Dist(b) != MaxWeight {
		t.Errorf("Dist(b) = %d, want MaxWeight (%d)", s.Dist(b), MaxWeight)
	}
	// Negative saturation: a huge deadline is harmless, not wrapped into a
	// positive cycle.
	s.AddMax(a, Zero, math.MaxInt64)
	if !s.Consistent() || s.Dist(a) != 0 {
		t.Errorf("after huge AddMax: consistent=%v Dist(a)=%d", s.Consistent(), s.Dist(a))
	}
}

func TestOverflowChainDeclaredInconsistent(t *testing.T) {
	// Chaining saturated weights cannot wrap int64: once a distance would
	// cross distCap the system is declared inconsistent (no schedule that
	// far in the future is usable), and distances stay non-negative
	// throughout. 2^60 / 2^52 = 256 links suffice; use a few more.
	s := New()
	prev := s.NewVar("v0")
	s.AddMin(prev, Zero, MaxWeight)
	for i := 0; i < 300 && s.Consistent(); i++ {
		v := s.NewVar("v")
		s.AddMin(v, prev, math.MaxInt64)
		if d := s.Dist(v); s.Consistent() && d < 0 {
			t.Fatalf("link %d: distance wrapped negative: %d", i, d)
		}
		prev = v
	}
	if s.Consistent() {
		t.Fatal("saturated chain never tripped the distance cap")
	}
	if _, err := s.Earliest(); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Earliest = %v, want ErrInconsistent", err)
	}
	// The guard is an undoable outcome like any other inconsistency.
	s.Reset(0)
	if !s.Consistent() || s.NumVars() != 1 {
		t.Fatalf("after Reset(0): consistent=%v NumVars=%d", s.Consistent(), s.NumVars())
	}
}

func TestAddWhileBrokenThenReset(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	s.AddMin(b, a, 7)
	mark := s.Mark()
	s.AddMin(a, b, 1) // positive cycle: broken
	if s.Consistent() {
		t.Fatal("positive cycle not detected")
	}
	// Constraints added while broken are recorded for undo only.
	c := s.NewVar("c")
	s.AddMin(c, b, 100)
	s.AddMin(b, a, 50)
	if s.Consistent() {
		t.Fatal("system became consistent while broken")
	}
	s.Reset(mark)
	if !s.Consistent() {
		t.Fatal("Reset below the breaking constraint did not restore consistency")
	}
	if s.NumVars() != 3 || s.Dist(b) != 7 || s.Dist(a) != 0 {
		t.Fatalf("after Reset: NumVars=%d Dist(a)=%d Dist(b)=%d", s.NumVars(), s.Dist(a), s.Dist(b))
	}
}

func TestResetAboveBreakStaysBroken(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	s.AddMin(b, a, 5)
	s.AddMax(b, a, 3) // broken here
	mark := s.Mark()
	s.AddMin(b, a, 9)
	s.Reset(mark)
	if s.Consistent() {
		t.Error("Reset above the breaking constraint must leave the system inconsistent")
	}
}

func TestLongPositiveCycle(t *testing.T) {
	s := New()
	vars := make([]VarID, 5)
	for i := range vars {
		vars[i] = s.NewVar("v")
	}
	for i := 1; i < len(vars); i++ {
		s.AddMin(vars[i], vars[i-1], 1)
	}
	if !s.Consistent() {
		t.Fatal("chain alone should be consistent")
	}
	s.AddMin(vars[0], vars[len(vars)-1], 0) // closes a +4 cycle
	if s.Consistent() {
		t.Error("long positive cycle not detected")
	}
}

func TestEarliestIntoReusesBuffer(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	b := s.NewVar("b")
	s.AddMin(a, Zero, 3)
	s.AddMin(b, a, 4)
	buf := make([]int64, 0, 16)
	got, err := s.EarliestInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("EarliestInto allocated despite sufficient capacity")
	}
	if got[a] != 3 || got[b] != 7 {
		t.Errorf("EarliestInto = %v, want [0 3 7]", got)
	}
	// Undersized buffers are grown, not truncated.
	small, err := s.EarliestInto(make([]int64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != s.NumVars() || small[b] != 7 {
		t.Errorf("grown buffer = %v", small)
	}
}

func TestEarliestSnapshotIsACopy(t *testing.T) {
	s := New()
	a := s.NewVar("a")
	d1, err := s.Earliest()
	if err != nil {
		t.Fatal(err)
	}
	s.AddMin(a, Zero, 42)
	if d1[a] != 0 {
		t.Error("Earliest snapshot aliased the live distance array")
	}
	d2, _ := s.Earliest()
	if d2[a] != 42 {
		t.Errorf("Dist after AddMin = %d, want 42", d2[a])
	}
}

// Property: Earliest is the least solution — every reported time
// satisfies all constraints, and lowering any single variable violates
// one (checked via satisfaction only, on random DAG-like systems).
func TestQuickEarliestSatisfiesAllConstraints(t *testing.T) {
	f := func(weights []int8) bool {
		s := New()
		const nv = 6
		vars := make([]VarID, nv)
		for i := range vars {
			vars[i] = s.NewVar("v")
		}
		// Use weights to build forward edges (i < j keeps it acyclic, so
		// always consistent).
		wi := 0
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				if wi >= len(weights) {
					break
				}
				w := int64(weights[wi])
				wi++
				if w < 0 {
					continue
				}
				s.AddMin(vars[j], vars[i], w)
			}
		}
		d, err := s.Earliest()
		if err != nil {
			return false
		}
		// Re-check every constraint by replaying the same construction.
		wi = 0
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				if wi >= len(weights) {
					break
				}
				w := int64(weights[wi])
				wi++
				if w < 0 {
					continue
				}
				if d[vars[j]] < d[vars[i]]+w {
					return false
				}
			}
		}
		for _, v := range vars {
			if d[v] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalOpsAllocationFree pins the four incremental operations
// the branch and bound runs per node at zero allocations: a push that
// shifts a 50-variable chain inside Mark/Reset, an implied push, an
// inconsistent push and its pop, and EarliestInto into a reused buffer.
func TestIncrementalOpsAllocationFree(t *testing.T) {
	chain := func() (*STN, VarID, VarID) {
		s := New()
		head := s.NewVar("v0")
		prev := head
		for i := 1; i < 50; i++ {
			v := s.NewVar("v")
			s.AddMin(v, prev, 10)
			prev = v
		}
		return s, head, prev
	}
	pair := func() (*STN, VarID, VarID) {
		s := New()
		a := s.NewVar("a")
		b := s.NewVar("b")
		s.AddMin(b, a, 100)
		return s, a, b
	}

	shift, head, tail := chain()
	implied, ia, ib := pair()
	broken, ba, bb := pair()
	snap, _, _ := chain()
	buf := make([]int64, 0, 64)
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"AddMin shifting a chain", func() {
			mark := shift.Mark()
			shift.AddMin(head, Zero, 100)
			if shift.Dist(tail) != 590 {
				t.Fatalf("Dist(tail) = %d, want 590", shift.Dist(tail))
			}
			shift.Reset(mark)
		}},
		{"implied AddMin", func() {
			mark := implied.Mark()
			implied.AddMin(ib, ia, 50)
			implied.Reset(mark)
		}},
		{"inconsistent push and pop", func() {
			mark := broken.Mark()
			broken.AddMin(ba, bb, 1)
			if broken.Consistent() {
				t.Fatal("positive cycle undetected")
			}
			broken.Reset(mark)
		}},
		{"EarliestInto a reused buffer", func() {
			out, err := snap.EarliestInto(buf)
			if err != nil {
				t.Fatal(err)
			}
			buf = out[:0]
		}},
	} {
		if allocs := testing.AllocsPerRun(100, op.run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per run, want 0", op.name, allocs)
		}
	}
}
