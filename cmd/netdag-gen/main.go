// Command netdag-gen emits a seeded regression corpus of NETDAG
// scenarios: random clique topologies × DAG shapes (pipelines, fan-in
// with identical sources, fan-out, diamonds, layered graphs) × period
// sets (multi-rate task subsets, harmonic and non-harmonic) ×
// constraint mixes (weakly-hard and soft, tight and loose), each solved
// and recorded with its expected outcome.
//
// Every scenario is generated from the master seed and its own index
// only, so the corpus — spec files plus MANIFEST.json — is bit-identical
// across runs, worker counts and machines. Per scenario the tool:
//
//   - solves the spec and records makespan / optimality / enumeration
//     size (or the unsat outcome — infeasible scenarios are regression
//     cases too: the solver must keep rejecting them);
//   - re-solves with symmetry breaking and the χ memo disabled and
//     fails unless the makespan, bus time and round assignment are
//     identical (both must be exact on every scenario, not just the
//     hand-written tests);
//   - every -certify-every-th solved scenario, deploys the schedule on
//     a clique and runs a seeded fault-injection campaign, certifying
//     the observed miss streams against the declared constraints.
//
// Usage:
//
//	netdag-gen [-n 200] [-seed 9] [-out examples/corpus]
//	           [-workers 0] [-certify-every 20] [-no-symmetry-check]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/netdag/netdag/internal/campaign"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
	"github.com/netdag/netdag/internal/sim"
	"github.com/netdag/netdag/internal/spec"
)

// scenarioEntry is one MANIFEST record. Only run-invariant facts go in:
// SolverNodes and wall times differ across worker counts and machines,
// so they are deliberately absent — the manifest must be bit-identical
// for the CI determinism diff.
type scenarioEntry struct {
	File      string `json:"file"`
	SHA256    string `json:"sha256"`
	Shape     string `json:"shape"`
	Mode      string `json:"mode"`
	BaseTasks int    `json:"baseTasks"`
	Tasks     int    `json:"tasks"`    // after unroll
	Messages  int    `json:"messages"` // after unroll
	Multirate bool   `json:"multirate"`

	Status   string `json:"status"` // solved | unsat
	Makespan int64  `json:"makespan,omitempty"`
	Optimal  bool   `json:"optimal,omitempty"`
	Explored int    `json:"explored,omitempty"`

	SymmetryEqual bool   `json:"symmetryEqual,omitempty"` // NoSymmetry re-solve matched
	Certified     string `json:"certified,omitempty"`     // pass | violated(n) | "" (not sampled)
}

// manifest is the corpus index, written as MANIFEST.json.
type manifest struct {
	Generator string          `json:"generator"`
	Seed      int64           `json:"seed"`
	Scenarios int             `json:"scenarios"`
	Aggregate aggregate       `json:"aggregate"`
	Entries   []scenarioEntry `json:"entries"`
}

type aggregate struct {
	Solved        int            `json:"solved"`
	Unsat         int            `json:"unsat"`
	Multirate     int            `json:"multirate"`
	ByShape       map[string]int `json:"byShape"`
	ByMode        map[string]int `json:"byMode"`
	TotalExplored int            `json:"totalExplored"`
	MaxExplored   int            `json:"maxExplored"`
	SymChecked    int            `json:"symmetryChecked"`
	Certified     int            `json:"certified"`
}

var shapes = []string{"pipeline", "fanin", "fanout", "diamond", "layered"}

func main() {
	n := flag.Int("n", 200, "scenarios to generate")
	seed := flag.Int64("seed", 9, "master corpus seed")
	out := flag.String("out", "examples/corpus", "output directory")
	workers := flag.Int("workers", 0, "solver workers (0 = GOMAXPROCS; any value yields the same corpus)")
	certifyEvery := flag.Int("certify-every", 20, "certify every k-th solved scenario (0 = never)")
	certifyReps := flag.Int("certify-reps", 5, "campaign replications per certified scenario")
	certifyRuns := flag.Int("certify-runs", 200, "schedule periods per replication")
	noSymCheck := flag.Bool("no-symmetry-check", false, "skip the NoSymmetry re-solve cross-check")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	man := manifest{
		Generator: "netdag-gen",
		Seed:      *seed,
		Scenarios: *n,
		Aggregate: aggregate{ByShape: map[string]int{}, ByMode: map[string]int{}},
	}
	start := time.Now()
	failures := 0
	for i := 0; i < *n; i++ {
		// Per-scenario PRNG keyed by (seed, index) alone: scenario i is
		// the same no matter how many scenarios surround it.
		rng := rand.New(rand.NewSource(*seed*1_000_003 + int64(i)))
		f, shape := genScenario(rng)
		body, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fatal(err)
		}
		body = append(body, '\n')
		name := fmt.Sprintf("scenario-%03d.json", i)
		if err := os.WriteFile(filepath.Join(*out, name), body, 0o644); err != nil {
			fatal(err)
		}
		sum := sha256.Sum256(body)
		ent := scenarioEntry{
			File:      name,
			SHA256:    hex.EncodeToString(sum[:]),
			Shape:     shape,
			Mode:      f.Mode,
			BaseTasks: len(f.Tasks),
			Multirate: len(f.Rates) > 0,
		}

		p, err := spec.Load(strings.NewReader(string(body)))
		if err != nil {
			fatal(fmt.Errorf("scenario %d: generated invalid spec: %w", i, err))
		}
		p.Workers = *workers
		ent.Tasks = p.App.NumTasks()
		ent.Messages = p.App.NumMessages()

		s, err := core.Solve(p)
		switch {
		case err == nil:
			ent.Status = "solved"
			ent.Makespan = s.Makespan
			ent.Optimal = s.Optimal
			ent.Explored = s.Explored
			man.Aggregate.Solved++
			man.Aggregate.TotalExplored += s.Explored
			if s.Explored > man.Aggregate.MaxExplored {
				man.Aggregate.MaxExplored = s.Explored
			}
		case errors.Is(err, core.ErrUnsat):
			ent.Status = "unsat"
			man.Aggregate.Unsat++
		default:
			fatal(fmt.Errorf("scenario %d: unexpected solve failure: %w", i, err))
		}

		if ent.Status == "solved" && !*noSymCheck {
			q, err := spec.Load(strings.NewReader(string(body)))
			if err != nil {
				fatal(err)
			}
			q.Workers = *workers
			q.NoSymmetry = true
			s2, err := core.Solve(q)
			if err != nil {
				fatal(fmt.Errorf("scenario %d: NoSymmetry re-solve failed: %w", i, err))
			}
			ent.SymmetryEqual = s2.Makespan == s.Makespan && s2.BusTime == s.BusTime &&
				slices.Equal(s2.Assign, s.Assign)
			man.Aggregate.SymChecked++
			if !ent.SymmetryEqual {
				fmt.Fprintf(os.Stderr, "netdag-gen: scenario %d: symmetry skip or χ memo changed the schedule (makespan %d vs %d, bus time %d vs %d)\n",
					i, s.Makespan, s2.Makespan, s.BusTime, s2.BusTime)
				failures++
			}
		}

		if ent.Status == "solved" && *certifyEvery > 0 && i%*certifyEvery == 0 {
			verdict, err := certify(p, s, *seed+int64(1_000_000+i), *certifyReps, *certifyRuns, *workers)
			if err != nil {
				fatal(fmt.Errorf("scenario %d: certification: %w", i, err))
			}
			ent.Certified = verdict
			man.Aggregate.Certified++
			if verdict != "pass" {
				fmt.Fprintf(os.Stderr, "netdag-gen: scenario %d: certification %s\n", i, verdict)
				failures++
			}
		}

		man.Aggregate.ByShape[shape]++
		man.Aggregate.ByMode[f.Mode]++
		if ent.Multirate {
			man.Aggregate.Multirate++
		}
		man.Entries = append(man.Entries, ent)
	}

	enc, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(filepath.Join(*out, "MANIFEST.json"), enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"netdag-gen: %d scenarios (%d solved, %d unsat, %d multirate) in %s -> %s\n",
		*n, man.Aggregate.Solved, man.Aggregate.Unsat, man.Aggregate.Multirate,
		time.Since(start).Round(time.Millisecond), *out)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "netdag-gen: %d scenario checks FAILED\n", failures)
		os.Exit(1)
	}
}

// certify deploys the schedule on a clique and runs a seeded
// fault-injection campaign, certifying observed miss streams against
// the declared constraints. Bit-identical across worker counts (the
// campaign seeds replications independently).
func certify(p *core.Problem, s *core.Schedule, seed int64, reps, runs, workers int) (string, error) {
	topo := network.Clique(len(p.App.Nodes()), 0.9)
	d, err := lwb.NewDeployment(p.App, s, topo, p.Params)
	if err != nil {
		return "", err
	}
	res, err := campaign.Run(d, campaign.Config{
		Replications: reps,
		Runs:         runs,
		Seed:         seed,
		Workers:      workers,
		Clocks:       sim.DefaultClockConfig(),
	})
	if err != nil {
		return "", err
	}
	rep, err := campaign.Certify(p, res, campaign.DefaultConfidence)
	if err != nil {
		return "", err
	}
	if rep.Violations > 0 {
		return fmt.Sprintf("violated(%d)", rep.Violations), nil
	}
	return "pass", nil
}

// genScenario draws one random scenario. Sizes are capped so a solve
// stays in the tens-of-milliseconds range: the corpus is a breadth
// regression suite, not a stress benchmark (scripts/bench_pr9.sh covers
// depth).
func genScenario(rng *rand.Rand) (*spec.File, string) {
	shape := shapes[rng.Intn(len(shapes))]
	f := &spec.File{
		Diameter: 2 + rng.Intn(2),
		MaxNTX:   6 + 2*rng.Intn(2),
	}
	if rng.Float64() < 0.7 {
		f.Mode = "weakly-hard"
		f.WHStatistic = &spec.StatSpec{Type: "synthetic"}
	} else {
		f.Mode = "soft"
		f.SoftStatistic = &spec.StatSpec{Type: "bernoulli", PerTX: 0.85 + 0.1*rng.Float64()}
	}

	task := func(name string) string {
		f.Tasks = append(f.Tasks, spec.TaskSpec{
			Name: name,
			Node: "n" + name,
			WCET: 100 + rng.Int63n(2900),
		})
		return name
	}
	edge := func(from, to string) {
		f.Edges = append(f.Edges, spec.EdgeSpec{From: from, To: to, Width: 2 + rng.Intn(14)})
	}

	var sinks []string
	switch shape {
	case "pipeline":
		n := 3 + rng.Intn(3)
		prev := task("t0")
		for k := 1; k < n; k++ {
			cur := task(fmt.Sprintf("t%d", k))
			edge(prev, cur)
			prev = cur
		}
		sinks = []string{prev}
	case "fanin":
		// k sources into a fuse stage; sources are identical with
		// probability 1/2, seeding an interchange class.
		k := 2 + rng.Intn(3)
		identical := rng.Float64() < 0.5
		wcet := 100 + rng.Int63n(2900)
		width := 2 + rng.Intn(14)
		fuse := task("fuse")
		for j := 0; j < k; j++ {
			src := task(fmt.Sprintf("src%d", j))
			if identical {
				f.Tasks[len(f.Tasks)-1].WCET = wcet
			}
			f.Edges = append(f.Edges, spec.EdgeSpec{From: src, To: fuse, Width: width})
			if !identical {
				f.Edges[len(f.Edges)-1].Width = 2 + rng.Intn(14)
			}
		}
		sink := task("sink")
		edge(fuse, sink)
		sinks = []string{sink}
	case "fanout":
		src := task("src")
		k := 2 + rng.Intn(3)
		for j := 0; j < k; j++ {
			c := task(fmt.Sprintf("c%d", j))
			edge(src, c)
			sinks = append(sinks, c)
		}
	case "diamond":
		src := task("src")
		a := task("a")
		b := task("b")
		sink := task("sink")
		edge(src, a)
		edge(src, b)
		edge(a, sink)
		edge(b, sink)
		sinks = []string{sink}
	case "layered":
		// Two layers with random cross edges; every layer-2 task
		// consumes at least one layer-1 task.
		k1, k2 := 2+rng.Intn(2), 2+rng.Intn(2)
		var l1 []string
		for j := 0; j < k1; j++ {
			l1 = append(l1, task(fmt.Sprintf("u%d", j)))
		}
		for j := 0; j < k2; j++ {
			v := task(fmt.Sprintf("v%d", j))
			first := rng.Intn(k1)
			edge(l1[first], v)
			for q := 0; q < k1; q++ {
				if q != first && rng.Float64() < 0.4 {
					edge(l1[q], v)
				}
			}
			sinks = append(sinks, v)
		}
	}

	// Period set: a subset of tasks runs 2-4 times per hyperperiod.
	// Harmonic rates dominate; 3 appears occasionally to exercise the
	// non-harmonic rate-transition rule. Capped at 3 rated tasks so the
	// unrolled enumeration stays corpus-sized.
	if rng.Float64() < 0.6 {
		f.Rates = map[string]int{}
		rated := rng.Perm(len(f.Tasks))[:1+rng.Intn(min(3, len(f.Tasks)))]
		for _, ti := range rated {
			r := []int{2, 2, 4, 3}[rng.Intn(4)]
			f.Rates[f.Tasks[ti].Name] = r
		}
	}

	// Constraint mix on the sinks (sink-only keeps the §III structure
	// conditions trivially satisfied). Tight mixes produce occasional
	// unsat scenarios by design.
	switch f.Mode {
	case "weakly-hard":
		f.WHConstraints = map[string]spec.WHSpec{}
		for _, s := range sinks {
			if rng.Float64() < 0.85 {
				w := []int{20, 40}[rng.Intn(2)]
				f.WHConstraints[s] = spec.WHSpec{
					Misses: w/2 + rng.Intn(w/2),
					Window: w,
				}
			}
		}
		if len(f.WHConstraints) == 0 {
			f.WHConstraints = nil
		}
	case "soft":
		f.SoftConstraints = map[string]float64{}
		for _, s := range sinks {
			if rng.Float64() < 0.85 {
				// Two decimals keep the JSON stable and human-readable.
				f.SoftConstraints[s] = 0.80 + float64(rng.Intn(18))/100
			}
		}
		if len(f.SoftConstraints) == 0 {
			f.SoftConstraints = nil
		}
	}
	return f, shape
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netdag-gen:", err)
	os.Exit(1)
}
