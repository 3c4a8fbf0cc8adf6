// Command netdag-sim deploys a scheduled problem spec onto a simulated
// wireless topology and executes it repeatedly — either with the
// abstract bus executor or with clock-accurate timing (drift, Glossy
// resynchronization, guard windows) — reporting per-task empirical hit
// rates against the design targets.
//
// With -campaign N it instead runs a deterministic fault-injection
// campaign: N independently seeded replications of the timed simulator
// (optionally under a -faults scenario), and with -certify it checks the
// campaign's empirical traces against the spec's declared constraints,
// exiting non-zero when a constraint is violated.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/netdag/netdag/internal/campaign"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/expt"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/sim"
	"github.com/netdag/netdag/internal/spec"
	"github.com/netdag/netdag/internal/wh"
)

func main() {
	runs := flag.Int("runs", 2000, "schedule executions to simulate (per replication with -campaign)")
	prr := flag.Float64("prr", 0.9, "uniform link packet reception ratio (clique; ignored with -topology)")
	topoFile := flag.String("topology", "", "JSON topology file (see network.TopologyFile); default: clique over the app's nodes")
	timed := flag.Bool("timed", false, "use the clock-accurate simulator")
	drift := flag.Float64("drift", 40, "worst-case clock drift (ppm, timed mode)")
	guard := flag.Float64("guard", 500, "guard window (µs, timed mode)")
	period := flag.Int64("period", 0, "schedule period (µs, timed mode; 0 = makespan + 100 ms)")
	seed := flag.Int64("seed", 1, "simulation seed (campaign master seed with -campaign)")
	workers := flag.Int("workers", 0, "parallel workers for the schedule search and campaign (0 = GOMAXPROCS, 1 = sequential)")
	deadline := flag.Duration("deadline", 0, "abort the schedule search after this wall-clock budget and simulate the best schedule found so far (0 = no limit)")
	faultsFile := flag.String("faults", "", "JSON fault scenario (sim.Scenario); implies -timed")
	campaignN := flag.Int("campaign", 0, "run a deterministic campaign of this many seeded replications (implies -timed)")
	certify := flag.Bool("certify", false, "certify campaign traces against the spec's constraints; exit 1 on violation (requires -campaign)")
	confidence := flag.Float64("confidence", campaign.DefaultConfidence, "Wilson confidence level for soft certification")
	online := flag.Int("online", 0, "run an online scheduler session in a closed loop — fault campaigns certify the live schedule and feed link/diameter events back — until this many events are journaled")
	journalPath := flag.String("journal", "", "write the session's replayable JSONL event journal here (online mode)")
	mobility := flag.Bool("mobility", false, "drive diameter events from a random-waypoint mobility model (online mode)")
	churn := flag.String("churn", "", "name of a task that periodically leaves and rejoins the application (online mode)")
	objective := flag.String("objective", "", `schedule search objective: "makespan" (default) or "energy"; overrides the spec's objective field`)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: netdag-sim [flags] problem.json")
		os.Exit(2)
	}
	if *certify && *campaignN <= 0 {
		fatal(errors.New("-certify requires -campaign"))
	}
	var scenario *sim.Scenario
	if *faultsFile != "" {
		sf, err := os.Open(*faultsFile)
		if err != nil {
			fatal(err)
		}
		scenario, err = sim.LoadScenario(sf)
		sf.Close()
		if err != nil {
			fatal(err)
		}
	}
	if scenario != nil || *campaignN > 0 {
		*timed = true
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	fspec, err := spec.Decode(f)
	if err != nil {
		fatal(err)
	}
	if *objective != "" {
		obj, err := core.ParseObjective(*objective)
		if err != nil {
			fatal(err)
		}
		if obj == core.ObjectivePareto {
			fatal(errors.New(`simulation executes a single schedule; -objective must be "makespan" or "energy" (netdag prints pareto fronts)`))
		}
		fspec.Objective = *objective
	}
	clocksCfg := sim.ClockConfig{DriftPPM: *drift, SyncJitterUS: 2, GuardUS: *guard}

	if *online > 0 {
		// Per-iteration campaign sizing: -campaign and -runs apply if
		// given; otherwise the loop's own (much smaller) defaults, since
		// the batch default of 2000 runs per iteration would make every
		// feedback step enormous.
		set := map[string]bool{}
		flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		loopRuns := 0
		if set["runs"] {
			loopRuns = *runs
		}
		runOnline(fspec, session.LoopConfig{
			Events:       *online,
			Seed:         *seed,
			Scenario:     scenario,
			Replications: *campaignN,
			Runs:         loopRuns,
			Workers:      *workers,
			Confidence:   *confidence,
			PRR:          *prr,
			Mobility:     *mobility,
			Churn:        *churn,
			Clocks:       clocksCfg,
			PeriodUS:     *period,
		}, *workers, *journalPath)
		return
	}

	p, err := spec.Build(fspec)
	if err != nil {
		fatal(err)
	}
	if p.Objective == core.ObjectivePareto {
		fatal(errors.New(`simulation executes a single schedule; re-run with -objective makespan or energy (netdag prints pareto fronts)`))
	}
	p.Workers = *workers
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	s, err := core.SolveContext(ctx, p)
	if errors.Is(err, core.ErrCanceled) {
		if s == nil {
			fatal(fmt.Errorf("deadline %v expired before any schedule was found", *deadline))
		}
		fmt.Fprintf(os.Stderr, "netdag-sim: deadline %v expired; simulating best schedule found so far (not proven optimal)\n", *deadline)
		err = nil
	}
	if err != nil {
		fatal(err)
	}
	var topo *network.Topology
	if *topoFile != "" {
		tf, err := os.Open(*topoFile)
		if err != nil {
			fatal(err)
		}
		topo, err = network.ReadJSON(tf)
		tf.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		topo = network.Clique(len(p.App.Nodes()), *prr)
	}
	d, err := lwb.NewDeployment(p.App, s, topo, p.Params)
	if err != nil {
		fatal(err)
	}
	clocks := clocksCfg

	if *campaignN > 0 {
		runCampaign(p, d, campaign.Config{
			Replications: *campaignN,
			Runs:         *runs,
			Seed:         *seed,
			Workers:      *workers,
			Scenario:     scenario,
			Clocks:       clocks,
			PeriodUS:     *period,
		}, *certify, *confidence)
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	taskSeqs := map[string]wh.Seq{}
	if *timed {
		per := *period
		if per == 0 {
			per = s.Makespan + 100_000
		}
		r, err := sim.NewRunner(d, clocks, per)
		if err != nil {
			fatal(err)
		}
		r.Faults = scenario
		res, err := r.Run(*runs, rng)
		if err != nil {
			fatal(err)
		}
		for id, q := range res.TaskSeqs {
			taskSeqs[p.App.Task(id).Name] = q
		}
		fmt.Printf("timed simulation: beacon capture %.3f, desync rate %.3f\n\n",
			res.BeaconCaptureRate, res.DesyncRate)
	} else {
		res, err := d.Run(*runs, rng)
		if err != nil {
			fatal(err)
		}
		for id, q := range res {
			taskSeqs[p.App.Task(id).Name] = q
		}
	}

	tab := expt.NewTable(fmt.Sprintf("empirical hit rates over %d runs (PRR %.2f)", *runs, *prr),
		"task", "hit rate", "target")
	for _, t := range p.App.Tasks() {
		target := "-"
		switch p.Mode {
		case core.Soft:
			if v, ok := p.SoftCons[t.ID]; ok {
				target = fmt.Sprintf("%.3f", v)
			}
		case core.WeaklyHard:
			if c, ok := p.WHCons[t.ID]; ok {
				target = c.String()
			}
		}
		tab.Addf("%s\t%.4f\t%s", t.Name, taskSeqs[t.Name].HitRate(), target)
	}
	fmt.Print(tab.String())
}

// runOnline runs the closed loop: a long-lived scheduler session whose
// event stream is generated by certifying the live schedule against
// fault campaigns (and, optionally, a mobility model and task churn).
// The journal is a deterministic function of the spec, the scenario and
// the seed — bit-identical across worker counts and repeat runs.
func runOnline(fspec *spec.File, cfg session.LoopConfig, workers int, journalPath string) {
	s, err := session.New(context.Background(), fspec, session.Config{Workers: workers})
	if err != nil {
		fatal(err)
	}
	res, err := session.RunLoop(context.Background(), s, cfg)
	if err != nil {
		s.Close()
		fatal(err)
	}
	if journalPath != "" {
		jf, err := os.Create(journalPath)
		if err != nil {
			fatal(err)
		}
		if err := s.WriteJournal(jf); err != nil {
			fatal(err)
		}
		if err := jf.Close(); err != nil {
			fatal(err)
		}
	}
	st := s.Close()
	name := "fault-free"
	if cfg.Scenario != nil && cfg.Scenario.Name != "" {
		name = cfg.Scenario.Name
	}
	fmt.Printf("online session under %q: %d events over %d iterations (seed %d)\n",
		name, res.Events, res.Iterations, cfg.Seed)
	fmt.Printf("  applied %d, rejected %d, violated iterations %d\n",
		st.Applied, st.Rejected, res.ViolatedIterations)
	fmt.Printf("  fallbacks %d, mode switches %d, recoveries %d, re-solves %d\n",
		st.Fallbacks, st.ModeSwitches, st.Recoveries, st.Resolves)
	if journalPath != "" {
		fmt.Printf("  journal: %s\n", journalPath)
	}
}

// runCampaign executes the campaign and, if asked, certifies it,
// exiting 1 when any constraint is empirically violated.
func runCampaign(p *core.Problem, d *lwb.Deployment, cfg campaign.Config, certify bool, confidence float64) {
	res, err := campaign.Run(d, cfg)
	if err != nil {
		fatal(err)
	}
	name := "fault-free"
	if cfg.Scenario != nil && cfg.Scenario.Name != "" {
		name = cfg.Scenario.Name
	}
	fmt.Printf("campaign %q: %d replications × %d runs, seed %d\n", name, cfg.Replications, cfg.Runs, cfg.Seed)
	fmt.Printf("mean beacon capture %.3f, mean desync rate %.3f\n\n",
		res.MeanBeaconCapture(), res.MeanDesyncRate())

	if !certify {
		tab := expt.NewTable("pooled empirical hit rates", "task", "hit rate")
		for _, t := range p.App.Tasks() {
			hits, trials := 0, 0
			for i := range res.Reps {
				q := res.Reps[i].TaskSeqs[t.ID]
				hits += q.Hits()
				trials += len(q)
			}
			tab.Addf("%s\t%.4f", t.Name, float64(hits)/float64(trials))
		}
		fmt.Print(tab.String())
		return
	}

	rep, err := campaign.Certify(p, res, confidence)
	if err != nil {
		fatal(err)
	}
	fmt.Print(FormatReport(rep))
	if rep.Violations > 0 {
		os.Exit(1)
	}
}

// FormatReport renders a certification report as a table with a
// one-line verdict.
func FormatReport(rep *campaign.Report) string {
	tab := expt.NewTable(fmt.Sprintf("certification (%s mode, confidence %.2f)", rep.Mode, rep.Confidence),
		"task", "status", "evidence", "replay")
	for _, t := range rep.Tasks {
		var evidence string
		if t.Window > 0 {
			evidence = fmt.Sprintf("worst window %d/%d vs (%d,%d)~", t.WorstMisses, t.Window, t.Misses, t.Window)
		} else {
			evidence = fmt.Sprintf("rate %.4f in [%.4f,%.4f] vs %.4f", t.HitRate, t.WilsonLo, t.WilsonHi, t.Target)
		}
		replay := fmt.Sprintf("rep %d seed %d", t.WorstRep, t.WorstSeed)
		if t.Status == campaign.Violation && t.Window > 0 {
			replay += fmt.Sprintf(" run %d: %s", t.WorstWindowStart, t.WorstWindow)
		}
		tab.Addf("%s\t%s\t%s\t%s", t.Task, t.Status, evidence, replay)
	}
	verdict := fmt.Sprintf("\nCERTIFIED: all %d constraints hold over %d×%d runs\n",
		len(rep.Tasks), rep.Replications, rep.Runs)
	if rep.Violations > 0 {
		verdict = fmt.Sprintf("\nVIOLATED: %d of %d constraints broken (replay with the reported seeds)\n",
			rep.Violations, len(rep.Tasks))
	} else if rep.Marginals > 0 {
		verdict = fmt.Sprintf("\nMARGINAL: %d of %d constraints lack evidence at confidence %.2f\n",
			rep.Marginals, len(rep.Tasks), rep.Confidence)
	}
	return tab.String() + verdict
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netdag-sim:", err)
	os.Exit(1)
}
