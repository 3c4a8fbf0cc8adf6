package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
)

// diamondProblem is a single-sink diamond: a source fans out to three
// branches that join at a soft-constrained sink. The sink's constraint
// covers every message and every round's beacon, so its χ instance
// depends only on the round count: the seven round assignments build
// two instances.
func diamondProblem() *Problem {
	g := dag.New()
	src := g.MustAddTask("src", "n0", 400)
	sink := g.MustAddTask("sink", "n4", 200)
	for i, w := range []int64{900, 300, 600} {
		br := g.MustAddTask(fmt.Sprintf("b%d", i), fmt.Sprintf("n%d", i+1), w)
		g.MustConnect(src, br, 8)
		g.MustConnect(br, sink, 4*(i+1))
	}
	return &Problem{
		App:      g,
		Params:   glossy.DefaultParams(),
		Diameter: 3,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.7},
		SoftCons: map[dag.TaskID]float64{sink: 0.97},
	}
}

// distinctChiInstances counts the distinct χ instances over every round
// assignment the solve enumerates, computed from the problem structure
// rather than the memo key: an instance is fixed by the round count and,
// per constrained task, the set of rounds carrying its ancestors.
func distinctChiInstances(t *testing.T, p *Problem) int {
	t.Helper()
	lg, err := dag.NewLineGraph(p.App)
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := p.MaxRounds
	if maxRounds == 0 {
		maxRounds = lg.MinRounds() + DefaultExtraRounds
	}
	ancestors := map[dag.TaskID][]dag.MsgID{}
	for id := range p.SoftCons {
		ancestors[id] = p.App.MsgAncestors(id)
	}
	for id := range p.WHCons {
		ancestors[id] = p.App.MsgAncestors(id)
	}
	var tasks []dag.TaskID
	for id := range ancestors {
		tasks = append(tasks, id)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	seen := map[string]bool{}
	lg.EnumerateAssignments(maxRounds, func(l []int) bool {
		rounds := 0
		for _, r := range l {
			rounds = max(rounds, r+1)
		}
		sig := fmt.Sprint(rounds)
		for _, id := range tasks {
			set := map[int]bool{}
			for _, m := range ancestors[id] {
				set[l[m]] = true
			}
			var rs []int
			for r := range set {
				rs = append(rs, r)
			}
			sort.Ints(rs)
			sig += fmt.Sprint(id, rs)
		}
		seen[sig] = true
		return true
	})
	return len(seen)
}

// TestChiMemoOneEntryPerInstance pins that the χ memo solves each
// distinct χ instance once: a sequential solve ends with exactly one
// entry per distinct instance. All 2,500 of av-heavy's round assignments
// reach the χ stage and build one instance; the diamond's seven build
// one per round count.
func TestChiMemoOneEntryPerInstance(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
		want int
	}{
		{"av-heavy", avHeavyProblem(t, false, false), 1},
		{"diamond", diamondProblem(), 2},
	} {
		tc.p.Workers = 1
		if _, err := Solve(tc.p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := distinctChiInstances(t, tc.p); got != tc.want {
			t.Fatalf("%s: %d distinct χ instances, want %d", tc.name, got, tc.want)
		}
		if got := len(tc.p.chiMemo.m); got != tc.want {
			t.Errorf("%s: %d memo entries, want one per distinct instance (%d)", tc.name, got, tc.want)
		}
	}
}

// TestChiMemoMatchesNoMemo is the memo's exactness differential:
// NoSymmetry turns the memo off, and the same schedule comes back at
// every worker count.
func TestChiMemoMatchesNoMemo(t *testing.T) {
	for name, mk := range map[string]func() *Problem{
		"av-heavy": func() *Problem { return avHeavyProblem(t, false, false) },
		"diamond":  diamondProblem,
	} {
		var ref *Schedule
		for _, workers := range []int{1, 4} {
			for _, noSym := range []bool{false, true} {
				p := mk()
				p.Workers, p.NoSymmetry = workers, noSym
				s, err := Solve(p)
				if err != nil {
					t.Fatalf("%s workers=%d noSym=%v: %v", name, workers, noSym, err)
				}
				if (p.chiMemo == nil) != noSym {
					t.Fatalf("%s: memo on = %v with NoSymmetry = %v", name, p.chiMemo != nil, noSym)
				}
				if ref == nil {
					ref = s
					continue
				}
				if s.Makespan != ref.Makespan || s.BusTime != ref.BusTime || !reflect.DeepEqual(s.Assign, ref.Assign) {
					t.Errorf("%s workers=%d noSym=%v: makespan %d bus %d assign %v, want %d %d %v", name, workers, noSym,
						s.Makespan, s.BusTime, s.Assign, ref.Makespan, ref.BusTime, ref.Assign)
				}
			}
		}
	}
}

// TestChiMemoHitAllocationFree pins that a memo hit allocates nothing:
// on instances whose χ never repeats the memo must cost next to nothing.
// chiFor builds the key straight from the assignment, so a hit builds no
// instance either: from the per-task checks to the entry handed to
// place, it allocates nothing, in both modes.
func TestChiMemoHitAllocationFree(t *testing.T) {
	memo := &chiMemo{m: map[string]chiMemoEntry{}}
	ci := mkChi(6, 5, 9, [][]int{{0, 1, 4}, {1, 2, 3, 5}})
	key := []byte("some instance")
	want := ci.solveEntry(false)
	memo.put(key, want)
	if allocs := testing.AllocsPerRun(100, func() { memo.get(key) }); allocs != 0 {
		t.Errorf("memo hit allocates %.0f times, want 0", allocs)
	}
	if got, ok := memo.get(key); !ok || !reflect.DeepEqual(got, want) || len(memo.m) != 1 {
		t.Errorf("hit = %+v, %v with %d entries, want %+v with 1", got, ok, len(memo.m), want)
	}

	for name, p := range map[string]*Problem{
		"diamond (soft)":         diamondProblem(),
		"av-heavy (weakly-hard)": avHeavyProblem(t, false, false),
	} {
		lg, s := ablationSearch(t, p)
		var ci chiInstance
		checked := 0
		lg.EnumerateAssignments(s.maxRounds, func(l []int) bool {
			rounds := roundCount(l)
			first := p.chiFor(&ci, l, rounds)
			if first.err != nil {
				t.Fatalf("%s: assignment %v: %v", name, l, first.err)
			}
			var hit chiMemoEntry
			if allocs := testing.AllocsPerRun(10, func() { hit = p.chiFor(&ci, l, rounds) }); allocs != 0 {
				t.Errorf("%s: assignment %v: memo hit allocates %.0f times, want 0", name, l, allocs)
			}
			if !reflect.DeepEqual(hit, first) {
				t.Errorf("%s: assignment %v: hit %+v, first lookup %+v", name, l, hit, first)
			}
			checked++
			return checked < 50
		})
		if checked == 0 {
			t.Errorf("%s: no assignment checked", name)
		}
	}
}
