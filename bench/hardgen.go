package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
)

// namedSpec is one benchmark input: a spec's JSON bytes under a stable
// name (the key of its committed expected hash).
type namedSpec struct {
	name string
	body []byte
	// unsat marks a spec the solver must reject with core.ErrUnsat.
	unsat bool
}

// The hard tier: two fixed anchors plus hardGenerated specs drawn by
// genHardSpec from candidate streams keyed by hardTierSeed. The shapes,
// rates, constraints and objectives come from the tier seed alone, so
// every --seed measures the same search problems; the run seed only
// rescales task WCETs by a factor in [0.8, 1.2]. That keeps the
// explored-assignment counts, and with them the cost of a pass, the same
// across seeds while the inputs still differ.
const (
	hardTierSeed  = 2020
	hardGenerated = 15
	// Candidates are accepted on unrolled message count alone, plus
	// satisfiability; never on timing.
	hardMinMessages = 6
	hardMaxMessages = 8
)

var hardShapes = []string{"pipeline", "fanin", "fanout", "diamond", "layered"}

// hardTier returns the anchors followed by the generated specs, for the
// run seed. The same seed always yields byte-identical specs.
func hardTier(seed int64) ([]namedSpec, error) {
	tier := []namedSpec{
		{name: "av-heavy", body: marshalSpec(avHeavy())},
		{name: "pipe8", body: marshalSpec(pipe8())},
	}
	for cand := 0; len(tier) < 2+hardGenerated; cand++ {
		if cand > 50*hardGenerated {
			return nil, errors.New("hard tier: generator yields too few admissible specs")
		}
		f, shape := genHardSpec(rand.New(rand.NewSource(hardTierSeed*1_000_003 + int64(cand))))
		ok, err := admissible(f)
		if err != nil {
			return nil, fmt.Errorf("hard tier candidate %d: %w", cand, err)
		}
		if !ok {
			continue
		}
		i := len(tier) - 2
		if i%4 == 3 {
			f.Objective = "energy"
		}
		jitter := rand.New(rand.NewSource(seed*7_919 + int64(cand)))
		for t := range f.Tasks {
			f.Tasks[t].WCET = f.Tasks[t].WCET * int64(80+jitter.Intn(41)) / 100
		}
		tier = append(tier, namedSpec{name: fmt.Sprintf("gen-%02d-%s", i, shape), body: marshalSpec(f)})
	}
	return tier, nil
}

// admissible reports whether a candidate spec enters the tier: its
// unrolled message count lies in [hardMinMessages, hardMaxMessages] and
// it is satisfiable. Satisfiability is decided by a solve with greedy χ
// and greedy placement, which fails exactly when the exact solve does:
// a χ instance is feasible iff it is feasible with every flood at MaxNTX
// (the greedy and exact χ searches share that check), and without
// deadlines every (l, χ) admits a placement.
func admissible(f *spec.File) (bool, error) {
	p, err := spec.Build(f)
	if err != nil {
		return false, err
	}
	if n := p.App.NumMessages(); n < hardMinMessages || n > hardMaxMessages {
		return false, nil
	}
	p.GreedyChi = true
	p.GreedyPlacement = true
	p.Workers = 1
	_, err = core.Solve(p)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, core.ErrUnsat), errors.Is(err, core.ErrStructure):
		return false, nil
	default:
		return false, err
	}
}

// genHardSpec draws one candidate: 5–8 base tasks in one of five shapes,
// up to three tasks rated at 2 or 4 executions per hyperperiod,
// weakly-hard (70%) or soft (30%) constraints on the sinks.
func genHardSpec(rng *rand.Rand) (*spec.File, string) {
	shape := hardShapes[rng.Intn(len(hardShapes))]
	f := &spec.File{Diameter: 2 + rng.Intn(2), MaxNTX: 8}
	if rng.Float64() < 0.7 {
		f.Mode = "weakly-hard"
		f.WHStatistic = &spec.StatSpec{Type: "synthetic"}
	} else {
		f.Mode = "soft"
		f.SoftStatistic = &spec.StatSpec{Type: "bernoulli", PerTX: 0.85 + float64(rng.Intn(11))/100}
	}
	n := 5 + rng.Intn(4)
	task := func(name string) string {
		f.Tasks = append(f.Tasks, spec.TaskSpec{Name: name, Node: "n" + name, WCET: 100 + rng.Int63n(2900)})
		return name
	}
	edge := func(from, to string) {
		f.Edges = append(f.Edges, spec.EdgeSpec{From: from, To: to, Width: 2 + rng.Intn(14)})
	}
	var sinks []string
	switch shape {
	case "pipeline":
		prev := task("t0")
		for k := 1; k < n; k++ {
			cur := task(fmt.Sprintf("t%d", k))
			edge(prev, cur)
			prev = cur
		}
		sinks = []string{prev}
	case "fanin":
		// Identical sources (half the time) form an interchange class.
		identical := rng.Intn(2) == 0
		wcet, width := 100+rng.Int63n(2900), 2+rng.Intn(14)
		fuse := task("fuse")
		for j := 0; j < n-2; j++ {
			src := task(fmt.Sprintf("src%d", j))
			edge(src, fuse)
			if identical {
				f.Tasks[len(f.Tasks)-1].WCET = wcet
				f.Edges[len(f.Edges)-1].Width = width
			}
		}
		sink := task("sink")
		edge(fuse, sink)
		sinks = []string{sink}
	case "fanout":
		src := task("src")
		mid := task("mid")
		edge(src, mid)
		for j := 0; j < n-2; j++ {
			c := task(fmt.Sprintf("c%d", j))
			edge(mid, c)
			sinks = append(sinks, c)
		}
	case "diamond":
		src := task("src")
		var mids []string
		for j := 0; j < n-2; j++ {
			m := task(fmt.Sprintf("m%d", j))
			edge(src, m)
			mids = append(mids, m)
		}
		sink := task("sink")
		for _, m := range mids {
			edge(m, sink)
		}
		sinks = []string{sink}
	case "layered":
		k1 := n / 2
		var l1 []string
		for j := 0; j < k1; j++ {
			l1 = append(l1, task(fmt.Sprintf("u%d", j)))
		}
		for j := 0; j < n-k1; j++ {
			v := task(fmt.Sprintf("v%d", j))
			first := rng.Intn(k1)
			edge(l1[first], v)
			for q := 0; q < k1; q++ {
				if q != first && rng.Intn(5) < 2 {
					edge(l1[q], v)
				}
			}
			sinks = append(sinks, v)
		}
	}
	if rng.Intn(5) < 4 {
		f.Rates = map[string]int{}
		for _, ti := range rng.Perm(len(f.Tasks))[:1+rng.Intn(3)] {
			f.Rates[f.Tasks[ti].Name] = 2 << rng.Intn(2)
		}
	}
	switch f.Mode {
	case "weakly-hard":
		f.WHConstraints = map[string]spec.WHSpec{}
		for _, s := range sinks {
			w := 20 << rng.Intn(2)
			f.WHConstraints[s] = spec.WHSpec{Misses: w/2 + rng.Intn(w/2), Window: w}
		}
	case "soft":
		f.SoftConstraints = map[string]float64{}
		for _, s := range sinks {
			f.SoftConstraints[s] = 0.80 + float64(rng.Intn(18))/100
		}
	}
	return f, shape
}
