// Package dse implements the paper's §IV-D transmission-power
// design-space exploration workflow (fig. 4): simulate mobile nodes in
// the unit square, profile the worst-case mean filtered signal strength
// fSS̄_i and network diameter D(N)_i per power setting Q_i, build the
// eq. (15) soft statistic from the profile, and query NETDAG for the
// end-to-end latency of the application under each setting — letting the
// designer pick the minimum power that meets a latency requirement.
package dse

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
)

// Config parameterizes an exploration run.
type Config struct {
	App      *dag.Graph             // application to schedule
	SoftCons map[dag.TaskID]float64 // task-level soft constraints F_s
	Params   glossy.Params
	MaxNTX   int

	MobileNodes int     // nodes in the mobility simulation
	Steps       int     // mobility snapshots profiled
	Speed       float64 // random-waypoint speed per step
	Qs          []float64
	Seed        int64
	Workers     int // scheduler worker count (core.Problem.Workers)
}

// DefaultConfig explores ten power settings over a 10-node mobile
// deployment.
func DefaultConfig(app *dag.Graph, cons map[dag.TaskID]float64) Config {
	qs := make([]float64, 10)
	for i := range qs {
		qs[i] = 0.1 * float64(i+1)
	}
	return Config{
		App: app, SoftCons: cons,
		Params:      glossy.DefaultParams(),
		MobileNodes: 10,
		Steps:       60,
		Speed:       0.03,
		Qs:          qs,
		Seed:        2020,
	}
}

// Point is one row of the fig. 4 workflow: the profile of a power setting
// and the application latency NETDAG reports under it, plus the per-node
// radio charge of one schedule execution (the energy axis of the
// power/latency tradeoff §IV-D explores; the radio's TX current scales
// with Q in real hardware, which RadioChargeUC deliberately excludes so
// the two effects — fewer retransmissions vs costlier transmissions —
// can be studied separately).
type Point struct {
	Q             float64
	WorstFSS      float64
	Diameter      int
	Usable        bool  // every mobility snapshot connected
	Latency       int64 // minimal feasible makespan; valid when Feasible
	Feasible      bool
	RadioChargeUC float64 // per-node charge per execution; valid when Feasible
	DutyCycle     float64 // radio-on fraction of the makespan
}

// Explore profiles every power setting over one shared mobility trace and
// queries the scheduler per setting.
func Explore(cfg Config) ([]Point, error) {
	points, _, err := explore(cfg)
	return points, err
}

// explore is the shared sweep behind Explore and ExploreFronts: it
// returns the fig. 4 rows plus, aligned by index, the solved
// core.Problem of each feasible setting (nil for unusable or infeasible
// ones) so front extraction can reuse the exact problem instance.
func explore(cfg Config) ([]Point, []*core.Problem, error) {
	if cfg.App == nil {
		return nil, nil, errors.New("dse: nil application")
	}
	if len(cfg.Qs) == 0 {
		return nil, nil, errors.New("dse: no power settings to explore")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	walker, err := network.NewRandomWaypoint(cfg.MobileNodes, cfg.Speed, rng)
	if err != nil {
		return nil, nil, err
	}
	trace := walker.Walk(cfg.Steps)
	out := make([]Point, 0, len(cfg.Qs))
	probs := make([]*core.Problem, 0, len(cfg.Qs))
	for _, q := range cfg.Qs {
		if q <= 0 || q > 1 {
			return nil, nil, fmt.Errorf("dse: power setting %v outside (0,1]", q)
		}
		prof, err := network.Profile(trace, q)
		if err != nil {
			return nil, nil, err
		}
		pt := Point{Q: q, WorstFSS: prof.WorstFSS, Diameter: prof.Diameter, Usable: prof.AlwaysOK}
		if !prof.AlwaysOK || prof.Diameter < 1 {
			out = append(out, pt) // setting unusable: no latency query
			probs = append(probs, nil)
			continue
		}
		prob := &core.Problem{
			App:       cfg.App,
			Params:    cfg.Params,
			Diameter:  prof.Diameter,
			Mode:      core.Soft,
			SoftStat:  glossy.SigmoidSoft{FSS: prof.WorstFSS},
			SoftCons:  cfg.SoftCons,
			MaxNTX:    cfg.MaxNTX,
			GreedyChi: true, // DSE sweeps many settings; speed over the last µs
			Workers:   cfg.Workers,
		}
		sched, err := core.Solve(prob)
		if err != nil {
			out = append(out, pt)
			probs = append(probs, nil)
			continue
		}
		pt.Latency = sched.Makespan
		pt.Feasible = true
		if rep, err := lwb.DefaultEnergyModel().Evaluate(sched, cfg.Params, prof.Diameter); err == nil {
			pt.RadioChargeUC = rep.ChargeUC
			pt.DutyCycle = rep.RadioDutyCycle
		}
		out = append(out, pt)
		probs = append(probs, prob)
	}
	return out, probs, nil
}

// FrontPoint is one point of a power setting's energy/latency Pareto
// front: the exact (makespan, charge) tradeoff plus the guarantee slack
// the schedule leaves on the task-level constraints — trading latency
// for energy never breaks feasibility, but it can consume margin, and
// the designer wants to see how much.
type FrontPoint struct {
	LatencyUS int64
	EnergyPC  int64   // exact integer charge (core energy accounting)
	ChargeUC  float64 // float reporting model (lwb.EnergyModel)
	// Slack is the tightest constraint margin (core.GuaranteeSlack);
	// +Inf when no constraint binds.
	Slack float64
}

// QFront is one power setting's profile together with its full Pareto
// front — the §IV-D figure extended with the energy axis. Front is nil
// when the setting is unusable or infeasible.
type QFront struct {
	Point Point // the makespan-minimal summary row, as Explore reports it
	Front []FrontPoint
}

// ExploreFronts is Explore with ObjectivePareto: per usable power
// setting it computes the full energy/latency front instead of only the
// minimal-latency point. The Point summaries are identical to
// Explore's (the front's makespan-minimal end is the minimal feasible
// latency), so callers can upgrade without changing the fig. 4 rows.
func ExploreFronts(cfg Config) ([]QFront, error) {
	points, probs, err := explore(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]QFront, len(points))
	for i, pt := range points {
		out[i] = QFront{Point: pt}
		if !pt.Feasible {
			continue
		}
		prob := probs[i]
		prob.Objective = core.ObjectivePareto
		front, err := core.ParetoFront(prob)
		if err != nil {
			return nil, fmt.Errorf("dse: front at Q=%v: %w", pt.Q, err)
		}
		for _, fp := range front {
			rec := FrontPoint{LatencyUS: fp.Makespan, EnergyPC: fp.EnergyPC}
			if rep, err := lwb.DefaultEnergyModel().Evaluate(fp.Sched, cfg.Params, prob.Diameter); err == nil {
				rec.ChargeUC = rep.ChargeUC
			}
			slack, err := core.GuaranteeSlack(prob, fp.Sched)
			if err != nil {
				return nil, fmt.Errorf("dse: slack at Q=%v: %w", pt.Q, err)
			}
			rec.Slack = slack
			out[i].Front = append(out[i].Front, rec)
		}
	}
	return out, nil
}

// MinPowerForLatency returns the smallest explored power setting whose
// latency meets the deadline, or false when none does — the designer's
// final query in the §IV-D workflow.
func MinPowerForLatency(points []Point, deadline int64) (Point, bool) {
	best := Point{}
	found := false
	for _, p := range points {
		if !p.Feasible || p.Latency > deadline {
			continue
		}
		if !found || p.Q < best.Q {
			best = p
			found = true
		}
	}
	return best, found
}
