package session

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/netdag/netdag/internal/campaign"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
	"github.com/netdag/netdag/internal/sim"
	"github.com/netdag/netdag/internal/spec"
)

// The closed loop: fault campaigns and mobility drive the session's
// event stream. Each iteration deploys the session's *currently exposed*
// schedule (in degraded state: the safe mode) onto the current topology,
// runs a seeded fault-injection campaign against it, certifies the
// traces, and feeds the verdict back as events — certification
// violations raise the retransmission floor, clean certifications lower
// it back, mobility profiles emit diameter changes, and an optional
// churn task joins and leaves periodically. Every per-iteration seed
// derives from the master seed via sim.ReplicationSeed, and no event
// depends on wall-clock timing, so the resulting journal is
// bit-identical across worker counts and repeat runs with the same
// seed.

// LoopConfig tunes RunLoop.
type LoopConfig struct {
	// Events stops the loop once the journal holds at least this many
	// entries beyond the init record (default 50).
	Events int
	// Seed is the master seed for campaigns, mobility and jitter.
	Seed int64
	// Scenario optionally injects faults into every campaign.
	Scenario *sim.Scenario
	// Replications and Runs size each iteration's campaign (defaults 8
	// and 40; Runs is raised to cover the largest weakly-hard window).
	Replications int
	Runs         int
	// Workers bounds campaign parallelism (0 = GOMAXPROCS). The journal
	// does not depend on it.
	Workers int
	// Confidence is the certifier's Wilson level (0 = default).
	Confidence float64
	// PRR is the clique link quality used when mobility is off
	// (default 0.9).
	PRR float64
	// Mobility enables the random-waypoint walker: each iteration
	// advances it, profiles the trace and emits a diameter event when
	// the worst-case diameter changed.
	Mobility      bool
	MobilitySpeed float64 // default 0.05
	MobilityPower float64 // default 0.5
	MobilitySteps int     // walker snapshots per iteration, default 5
	// Churn optionally names a task that leaves and rejoins every
	// ChurnEvery-th iteration (default every 7), exercising the
	// workload-event path.
	Churn      string
	ChurnEvery int
	// Clocks and PeriodUS configure the timed simulator.
	Clocks   sim.ClockConfig
	PeriodUS int64
}

// LoopResult summarizes a closed-loop run.
type LoopResult struct {
	Iterations         int   `json:"iterations"`
	Events             int   `json:"events"`
	ViolatedIterations int   `json:"violatedIterations"`
	Stats              Stats `json:"stats"`
}

// churnSpec captures everything needed to re-admit the churn task after
// it leaves: its task spec, incident edges, constraints and rate, taken
// from the description at loop start.
type churnSpec struct {
	task  spec.TaskSpec
	edges []spec.EdgeSpec
	soft  *float64
	wh    *spec.WHSpec
	rate  int
}

func captureChurn(f *spec.File, name string) *churnSpec {
	for _, t := range f.Tasks {
		if t.Name != name {
			continue
		}
		c := &churnSpec{task: t}
		for _, e := range f.Edges {
			if e.From == name || e.To == name {
				c.edges = append(c.edges, e)
			}
		}
		if v, ok := f.SoftConstraints[name]; ok {
			v := v
			c.soft = &v
		}
		if w, ok := f.WHConstraints[name]; ok {
			w := w
			c.wh = &w
		}
		c.rate = f.Rates[name]
		return c
	}
	return nil
}

// RunLoop drives the session with campaign- and mobility-generated
// events until cfg.Events entries are journaled or ctx expires. It
// returns the partial result with ctx.Err() on early cancellation.
func RunLoop(ctx context.Context, s *Session, cfg LoopConfig) (*LoopResult, error) {
	if cfg.Events <= 0 {
		cfg.Events = 50
	}
	if cfg.Replications <= 0 {
		cfg.Replications = 8
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 40
	}
	if cfg.PRR <= 0 {
		cfg.PRR = 0.9
	}
	if cfg.MobilitySpeed <= 0 {
		cfg.MobilitySpeed = 0.05
	}
	if cfg.MobilityPower <= 0 {
		cfg.MobilityPower = 0.5
	}
	if cfg.MobilitySteps <= 0 {
		cfg.MobilitySteps = 5
	}
	if cfg.ChurnEvery <= 0 {
		cfg.ChurnEvery = 7
	}

	res := &LoopResult{}
	var churn *churnSpec
	if cfg.Churn != "" {
		if churn = captureChurn(s.File(), cfg.Churn); churn == nil {
			return nil, fmt.Errorf("session: churn task %q not in the spec", cfg.Churn)
		}
	}

	// The walker's node count is pinned to the initial application: churn
	// only removes and re-adds tasks on existing nodes, and the
	// deployment tolerates a topology wider than the task set.
	prob, _, _ := s.Current()
	nodes := len(prob.App.Nodes())
	var walker *network.RandomWaypoint
	var placement network.Placement
	if cfg.Mobility {
		w, err := network.NewRandomWaypoint(nodes, cfg.MobilitySpeed, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		walker = w
	}

	apply := func(e Event) error {
		if _, err := s.Apply(ctx, e); err != nil {
			return err
		}
		res.Events++
		return nil
	}

	for i := 0; res.Events < cfg.Events; i++ {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		res.Iterations = i + 1
		applied := res.Events

		// Mobility: advance the walker, profile the new trace and report
		// a changed worst-case diameter as an environment fact.
		if walker != nil {
			trace := walker.Walk(cfg.MobilitySteps)
			placement = trace[len(trace)-1]
			prof, err := network.Profile(trace, cfg.MobilityPower)
			if err != nil {
				return res, err
			}
			if prof.AlwaysOK && prof.Diameter >= 1 && prof.Diameter != s.File().Diameter {
				if err := apply(Event{Kind: KindDiameter, Diameter: prof.Diameter}); err != nil {
					return res, err
				}
			}
		}

		// Campaign against the currently exposed schedule — never against
		// anything unproven.
		prob, sched, _ := s.Current()
		var topo *network.Topology
		if walker != nil {
			topo = network.FromPlacement(placement, cfg.MobilityPower)
		} else {
			topo = network.Clique(nodes, cfg.PRR)
		}
		d, err := lwb.NewDeployment(prob.App, sched, topo, prob.Params)
		if err != nil {
			return res, err
		}
		runs := cfg.Runs
		for _, c := range prob.WHCons {
			if c.Window > runs {
				runs = c.Window
			}
		}
		camp, err := campaign.RunContext(ctx, d, campaign.Config{
			Replications: cfg.Replications,
			Runs:         runs,
			Seed:         sim.ReplicationSeed(cfg.Seed, i),
			Workers:      cfg.Workers,
			Scenario:     cfg.Scenario,
			Clocks:       cfg.Clocks,
			PeriodUS:     cfg.PeriodUS,
		})
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			return res, err
		}
		report, err := campaign.Certify(prob, camp, cfg.Confidence)
		if err != nil {
			return res, err
		}

		// Feedback: violations raise the retransmission floor (one step
		// past MaxNTX at most — enough to trip the safe-mode fallback);
		// clean certifications relax it back toward 1.
		cur := s.File()
		maxNTX := cur.MaxNTX
		if maxNTX == 0 {
			maxNTX = prob.MaxNTX
		}
		minNTX := cur.MinNTX
		if minNTX == 0 {
			minNTX = 1
		}
		if len(report.Violated()) > 0 {
			res.ViolatedIterations++
			if minNTX <= maxNTX {
				if err := apply(Event{Kind: KindLink, MinNTX: minNTX + 1}); err != nil {
					return res, err
				}
			}
		} else if minNTX > 1 {
			if err := apply(Event{Kind: KindLink, MinNTX: minNTX - 1}); err != nil {
				return res, err
			}
		}

		// Churn: periodically retire and re-admit the designated task.
		if churn != nil && i > 0 && i%cfg.ChurnEvery == 0 {
			present := captureChurn(s.File(), churn.task.Name) != nil
			var e Event
			if present {
				e = Event{Kind: KindTaskLeave, Task: churn.task.Name}
			} else {
				e = Event{
					Kind: KindTaskJoin, Task: churn.task.Name, Node: churn.task.Node,
					WCET: churn.task.WCET, Edges: churn.edges,
					Soft: churn.soft, WH: churn.wh, Rate: churn.rate,
				}
			}
			if err := apply(e); err != nil {
				return res, err
			}
		}

		// Heartbeat: keep the journal moving even on a quiet iteration —
		// a same-node placement event is a semantic no-op whose re-solve
		// exercises the warm-start fast path.
		if res.Events == applied {
			hb := s.File().Tasks[0]
			if err := apply(Event{Kind: KindPlacement, Task: hb.Name, Node: hb.Node}); err != nil {
				return res, err
			}
		}
	}
	res.Stats = s.Stats()
	return res, nil
}
