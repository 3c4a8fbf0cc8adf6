package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

// placed is one round assignment with its solved χ, ready for place.
type placed struct {
	assign, chi []int
	rounds      int
}

// placeableAssignments normalizes p and returns up to limit of its
// round assignments whose χ search succeeds, each solved on a one-off
// scratch.
func placeableAssignments(t *testing.T, p *Problem, limit int) []placed {
	t.Helper()
	lg, s := ablationSearch(t, p)
	var out []placed
	lg.EnumerateAssignments(s.maxRounds, func(l []int) bool {
		rounds := roundCount(l)
		if ent := p.chiFor(&chiInstance{}, l, rounds); ent.err == nil {
			out = append(out, placed{assign: append([]int(nil), l...), chi: ent.chi, rounds: rounds})
		}
		return len(out) < limit
	})
	return out
}

// randTemplateProblem draws a small soft or weakly-hard instance with a
// release time and deadlines. With broken set, a sink with a predecessor
// gets a deadline equal to its WCET, which normalize accepts but which
// makes the template's fixed part inconsistent.
func randTemplateProblem(t *testing.T, rng *rand.Rand, soft, energy, broken bool) *Problem {
	t.Helper()
	g, err := apps.RandomLayered(2+rng.Intn(2), 1+rng.Intn(3), 2, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 1 + rng.Intn(3), MaxNTX: 4 + rng.Intn(4),
		Deadlines: map[dag.TaskID]int64{}, ReleaseTimes: map[dag.TaskID]int64{},
	}
	if energy {
		p.Objective = ObjectiveEnergy
	}
	sinks := g.Sinks()
	if soft {
		p.Mode, p.SoftStat = Soft, glossy.BernoulliSoft{PerTX: 0.8}
		p.SoftCons = map[dag.TaskID]float64{}
		for _, s := range sinks {
			p.SoftCons[s] = 0.5 + 0.4*rng.Float64()
		}
	} else {
		p.Mode, p.WHStat = WeaklyHard, glossy.SyntheticWH{}
		p.WHCons = map[dag.TaskID]wh.MissConstraint{}
		for _, s := range sinks {
			p.WHCons[s] = wh.MissConstraint{Misses: 12 + rng.Intn(20), Window: 40}
		}
	}
	tasks := g.Tasks()
	p.ReleaseTimes[tasks[rng.Intn(len(tasks))].ID] = int64(rng.Intn(4000))
	loose := tasks[rng.Intn(len(tasks))]
	p.Deadlines[loose.ID] = loose.WCET + 200000 + int64(rng.Intn(100000))
	if broken {
		sink := g.Task(sinks[rng.Intn(len(sinks))])
		p.Deadlines[sink.ID] = sink.WCET
	}
	return p
}

// tightenDeadline puts a deadline on the sink whose finish varies most
// over the candidates' unbounded placements, at the median finish: the
// fixed part stays consistent, and some placements become infeasible.
func tightenDeadline(p *Problem, cands []placed) {
	best, spread := dag.TaskID(-1), int64(0)
	var at int64
	for _, sink := range p.App.Sinks() {
		var fin []int64
		for _, c := range cands {
			if s, err := p.place(context.Background(), &placeTemplate{}, c.assign, c.chi, c.rounds, -1); err == nil {
				fin = append(fin, s.Tasks[sink].Finish)
			}
		}
		if len(fin) == 0 {
			continue
		}
		sort.Slice(fin, func(i, j int) bool { return fin[i] < fin[j] })
		if d := fin[len(fin)-1] - fin[0]; d > spread {
			best, spread, at = sink, d, fin[len(fin)/2]
		}
	}
	if best >= 0 {
		p.Deadlines[best] = at
	}
}

// TestTemplateReuseMatchesFresh runs one template through random
// sequences of placements and compares every result with a one-off
// template's: the Schedule, SolverNodes included, or the error. The
// sequences interleave no bound, loose bounds, bounds that prune, a
// small SolverNodes that forces the redo without the incumbent bound, a
// canceled context and GreedyPlacement, on soft and weakly-hard
// instances under both objectives, with release times and deadlines.
// Some deadlines make the fixed part inconsistent; others leave it
// consistent but make some placements infeasible. A return path that
// left its placement in the template would change a later result.
func TestTemplateReuseMatchesFresh(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	seen := map[string]int{}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(2400 + trial)))
		soft, energy, broken, tight := trial%2 == 0, trial%3 == 0, trial%5 == 4, trial%5 == 2
		p := randTemplateProblem(t, rng, soft, energy, broken)
		cands := placeableAssignments(t, p, 40)
		if len(cands) == 0 {
			continue
		}
		if tight {
			tightenDeadline(p, cands)
		}
		// Each assignment's unbounded optimum under the objective, to
		// place bounds around.
		scalar := make([]int64, len(cands))
		for i, c := range cands {
			scalar[i] = 50000
			if s, err := p.place(context.Background(), &placeTemplate{}, c.assign, c.chi, c.rounds, -1); err == nil {
				scalar[i] = s.Makespan
				if energy {
					scalar[i] = s.EnergyPC
				}
			}
		}
		var tpl placeTemplate
		for step := 0; step < 30; step++ {
			i := rng.Intn(len(cands))
			c := cands[i]
			ctx := context.Background()
			bound := int64(-1)
			kind := []string{"none", "loose", "pruning", "small budget", "canceled", "greedy"}[rng.Intn(6)]
			switch kind {
			case "loose":
				bound = scalar[i] + int64(rng.Intn(5000))
			case "pruning":
				bound = max(0, scalar[i]-1-int64(rng.Intn(3000)))
			case "small budget":
				p.SolverNodes = 1 + rng.Intn(4)
				bound = scalar[i] + int64(rng.Intn(3))
			case "canceled":
				ctx = canceled
				bound = scalar[i]
			case "greedy":
				p.GreedyPlacement = true
				bound = max(0, scalar[i]+int64(rng.Intn(4000)-2000))
			}
			got, gotErr := p.place(ctx, &tpl, c.assign, c.chi, c.rounds, bound)
			want, wantErr := p.place(ctx, &placeTemplate{}, c.assign, c.chi, c.rounds, bound)
			p.SolverNodes, p.GreedyPlacement = DefaultSolverNodes, false
			label := fmt.Sprintf("trial %d (soft=%v energy=%v broken=%v) step %d, %s bound %d, assignment %v",
				trial, soft, energy, broken, step, kind, bound, c.assign)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: reused template error %v, fresh %v", label, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: reused template schedule\n%+v\nfresh\n%+v", label, got, want)
			}
			switch {
			case gotErr == nil:
				seen[kind+": schedule"]++
			case gotErr == errBoundPruned:
				seen[kind+": pruned"]++
			default:
				seen[kind+": "+gotErr.Error()]++
			}
			if broken {
				seen["inconsistent fixed part"]++
			}
			if tight && kind == "none" {
				seen[fmt.Sprintf("tight deadline: error=%v", gotErr != nil)]++
			}
		}
	}
	t.Logf("outcomes: %v", seen)
	for _, outcome := range []string{
		"none: schedule", "loose: schedule", "pruning: pruned", "small budget: schedule",
		"canceled: solver: search canceled", "greedy: schedule", "greedy: pruned",
		"none: core: timing search failed: solver: no feasible schedule",
		"inconsistent fixed part", "tight deadline: error=false", "tight deadline: error=true",
	} {
		if seen[outcome] == 0 {
			t.Errorf("no placement with outcome %q; seen %v", outcome, seen)
		}
	}
}

// TestPrunedPlacementAllocationFree pins that an assignment the bound
// prunes allocates nothing on a warm consumer: neither place on a warm
// template, nor the whole scheduleForAssignment with a χ memo hit.
func TestPrunedPlacementAllocationFree(t *testing.T) {
	p := pipe8Problem(t)
	c := placeableAssignments(t, p, 1)[0]
	var sc scratch
	sched, err := p.scheduleForAssignment(context.Background(), &sc, c.assign, -1)
	if err != nil {
		t.Fatal(err)
	}
	bound := sched.Makespan - 1
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		_, err = p.place(ctx, &sc.tpl, c.assign, c.chi, c.rounds, bound)
	}); allocs != 0 || err != errBoundPruned {
		t.Errorf("pruned place: %.0f allocations, error %v; want 0 and errBoundPruned", allocs, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, err = p.scheduleForAssignment(ctx, &sc, c.assign, bound)
	}); allocs != 0 || err != errBoundPruned {
		t.Errorf("pruned scheduleForAssignment: %.0f allocations, error %v; want 0 and errBoundPruned", allocs, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, err = p.place(ctx, &sc.tpl, c.assign, c.chi, c.rounds, -1)
	})
	t.Logf("pipe8 feasible placement on a warm template: %.0f allocations", allocs)
}

// chiMissAllocs is what a χ memo miss on a warm consumer allocates,
// whatever the instance: the key the memo stores and the vector solve
// copies out of the consumer's buffers.
const chiMissAllocs = 2

// TestChiMemoMissAllocations pins that a χ memo miss on a warm consumer
// allocates chiMissAllocs times on instances with 1, 8 and 11
// constraints:
// the instance, its flood lists and the search arrays all come from the
// consumer's scratch. The miss still returns the first solve's entry.
func TestChiMemoMissAllocations(t *testing.T) {
	for name, p := range map[string]*Problem{
		"diamond (soft)":         diamondProblem(),
		"pipe8 (weakly-hard)":    pipe8Problem(t),
		"av-heavy (weakly-hard)": avHeavyProblem(t, false, false),
	} {
		c := placeableAssignments(t, p, 1)[0]
		var ci chiInstance
		want := p.chiFor(&ci, c.assign, c.rounds)
		key := string(p.chiKey(nil, c.assign, c.rounds))
		var got chiMemoEntry
		allocs := testing.AllocsPerRun(50, func() {
			delete(p.chiMemo.m, key)
			got = p.chiFor(&ci, c.assign, c.rounds)
		})
		t.Logf("%s, %d constraints: %.0f allocations per miss", name, len(p.chiCons), allocs)
		if allocs != chiMissAllocs {
			t.Errorf("%s: a memo miss allocates %.0f times, want %d", name, allocs, chiMissAllocs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: miss on a warm consumer %+v, first miss %+v", name, got, want)
		}
	}
}
