// Command netdag schedules a networked application described by a JSON
// problem spec over the Low-Power Wireless Bus and prints the resulting
// timeline, per-flood retransmission parameters and guarantees.
//
// Usage:
//
//	netdag [-baseline] [-deadline 30s] [-validate runs] [-objective makespan|energy|pareto] problem.json
//	netdag -example > problem.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/expt"
	"github.com/netdag/netdag/internal/smtenc"
	"github.com/netdag/netdag/internal/spec"
	"github.com/netdag/netdag/internal/validate"
)

const exampleSpec = `{
  "mode": "weakly-hard",
  "diameter": 3,
  "tasks": [
    {"name": "sense", "node": "n0", "wcet": 500},
    {"name": "ctrl",  "node": "n1", "wcet": 2000},
    {"name": "act",   "node": "n2", "wcet": 300}
  ],
  "edges": [
    {"from": "sense", "to": "ctrl", "width": 8},
    {"from": "ctrl",  "to": "act",  "width": 4}
  ],
  "whStatistic": {"type": "synthetic"},
  "whConstraints": {"act": {"misses": 10, "window": 40}}
}
`

func main() {
	baseline := flag.Bool("baseline", false, "use the global-N_TX baseline scheduler instead of NETDAG")
	runs := flag.Int("validate", 0, "also run §IV-A validation with this many simulated runs")
	seed := flag.Int64("seed", 1, "validation RNG seed")
	example := flag.Bool("example", false, "print an example problem spec and exit")
	jsonOut := flag.Bool("json", false, "emit the schedule as JSON instead of a timeline")
	smtOut := flag.Bool("smt", false, "emit the SMT-LIB 2 encoding (ASAP round assignment) and exit")
	workers := flag.Int("workers", 0, "parallel round-assignment search workers (0 = GOMAXPROCS, 1 = sequential)")
	deadline := flag.Duration("deadline", 0, "abort the search after this wall-clock budget and print the best schedule found so far (0 = no limit)")
	objective := flag.String("objective", "", `solver objective: "makespan" (default), "energy" (minimal radio charge), or "pareto" (full energy/latency front); overrides the spec's objective field`)
	flag.Parse()

	if *example {
		fmt.Print(exampleSpec)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: netdag [-baseline] [-validate runs] problem.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	p, err := spec.Load(f)
	if err != nil {
		fatal(err)
	}
	p.Workers = *workers
	if *objective != "" {
		obj, err := core.ParseObjective(*objective)
		if err != nil {
			fatal(err)
		}
		p.Objective = obj
	}
	if *smtOut {
		lg, err := dag.NewLineGraph(p.App)
		if err != nil {
			fatal(err)
		}
		if err := smtenc.Encode(os.Stdout, p, lg.EarliestAssignment()); err != nil {
			fatal(err)
		}
		return
	}
	var s *core.Schedule
	var front []core.ParetoPoint
	if *baseline {
		if p.Objective == core.ObjectivePareto {
			fatal(errors.New("the global-N_TX baseline supports only the makespan objective"))
		}
		s, err = core.GlobalNTXBaseline(p)
	} else {
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		if p.Objective == core.ObjectivePareto {
			front, err = core.ParetoFrontContext(ctx, p)
			if errors.Is(err, core.ErrCanceled) {
				if len(front) == 0 {
					fatal(fmt.Errorf("deadline %v expired before any front point was found", *deadline))
				}
				fmt.Fprintf(os.Stderr, "netdag: deadline %v expired; printing the %d-point partial front (energy-optimal end may be missing)\n",
					*deadline, len(front))
				err = nil
			}
			if err == nil {
				s = front[0].Sched
			}
		} else {
			s, err = core.SolveContext(ctx, p)
			if errors.Is(err, core.ErrCanceled) {
				if s == nil {
					fatal(fmt.Errorf("deadline %v expired before any schedule was found", *deadline))
				}
				fmt.Fprintf(os.Stderr, "netdag: deadline %v expired after %d assignments; printing best schedule found so far (not proven optimal)\n",
					*deadline, s.Explored)
				err = nil
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	switch {
	case front != nil && *jsonOut:
		if err := spec.WriteFrontJSON(os.Stdout, p, front); err != nil {
			fatal(err)
		}
	case front != nil:
		tab := expt.NewTable("energy/latency Pareto front", "makespan (µs)", "energy (pC)", "rounds")
		for _, pt := range front {
			tab.Addf("%d\t%d\t%d", pt.Makespan, pt.EnergyPC, len(pt.Sched.Rounds))
		}
		fmt.Print(tab.String())
		fmt.Println()
		fmt.Print(s.String()) // the makespan-minimal point's timeline
	case *jsonOut:
		if err := spec.WriteJSON(os.Stdout, p, s); err != nil {
			fatal(err)
		}
	default:
		fmt.Print(s.String())
	}

	if *runs > 0 {
		rng := rand.New(rand.NewSource(*seed))
		switch p.Mode {
		case core.Soft:
			reports, err := validate.SoftAll(p, s, *runs, rng)
			if err != nil {
				fatal(err)
			}
			tab := expt.NewTable("§IV-A soft validation", "task", "target", "scheduled", "statistic", "pass")
			for _, r := range reports {
				tab.Addf("%s\t%.4f\t%.4f\t%.4f\t%v", r.Name, r.Target, r.Scheduled, r.Statistic, r.Pass)
			}
			fmt.Print(tab.String())
		case core.WeaklyHard:
			reports, err := validate.WHAll(p, s, *runs, rng)
			if err != nil {
				fatal(err)
			}
			tab := expt.NewTable("§IV-A weakly-hard validation", "task", "requirement", "guarantee", "worst misses", "pass")
			for _, r := range reports {
				tab.Addf("%s\t%v\t%v\t%d\t%v", r.Name, r.Requirement, r.Guarantee, r.WorstMisses, r.Pass)
			}
			fmt.Print(tab.String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netdag:", err)
	os.Exit(1)
}
