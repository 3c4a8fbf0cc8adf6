package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
	"github.com/netdag/netdag/internal/wh"
)

// Runner executes a deployed schedule repeatedly on a global timeline
// with per-node clocks. The model, following LWB practice:
//
//   - A synchronized node wakes for a round at the time its clock
//     predicts. Once its clock error exceeds the guard window it wakes
//     at the wrong time: it misses that round's beacon and slots and
//     becomes unsynchronized.
//   - An unsynchronized node keeps its radio listening to rejoin:
//     capturing any beacon that reaches it resynchronizes it. The host
//     sends the beacon, so it always has it.
//   - Contention-free slots demand tight alignment: a node participates
//     in a slot flood (as initiator or relay/receiver) only while its
//     clock error fits the guard window.
//   - Clock error accumulates at the node's drift rate between
//     successful beacon captures.
type Runner struct {
	D      *lwb.Deployment
	Clocks ClockConfig
	// PeriodUS is the schedule repetition period; it must cover the
	// makespan.
	PeriodUS int64
	// Faults optionally injects the deterministic fault scenario into
	// every flood (see faults.go). Nil injects nothing, and the
	// simulation is then draw-for-draw identical to the pre-fault
	// runner. The scenario is read-only during Run and may be shared
	// across concurrently running replications.
	Faults *Scenario
}

// NewRunner validates and builds a timing-aware runner.
func NewRunner(d *lwb.Deployment, cfg ClockConfig, periodUS int64) (*Runner, error) {
	if d == nil {
		return nil, errors.New("sim: nil deployment")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if periodUS < d.Sched.Makespan {
		return nil, fmt.Errorf("sim: period %d µs below makespan %d µs", periodUS, d.Sched.Makespan)
	}
	return &Runner{D: d, Clocks: cfg, PeriodUS: periodUS}, nil
}

// Result aggregates a timed simulation.
type Result struct {
	// TaskSeqs is the per-task hit/miss trace across executions.
	TaskSeqs map[dag.TaskID]wh.Seq
	// BeaconCaptureRate is the fraction of (node, round) pairs that
	// captured the beacon.
	BeaconCaptureRate float64
	// DesyncRate is the fraction of (node, round) pairs that entered a
	// round outside the guard window.
	DesyncRate float64
}

// RunSeeded executes the schedule `runs` times on a fresh PRNG seeded
// with seed. Two RunSeeded calls with equal seeds produce bit-identical
// results; this is the entry point campaign replications use so that no
// PRNG is ever shared between replications.
func (r *Runner) RunSeeded(runs int, seed int64) (*Result, error) {
	return r.Run(runs, rand.New(rand.NewSource(seed)))
}

// Run executes the schedule `runs` times back to back. The rng must not
// be shared with concurrent work: all draws for clocks, floods and fault
// processes come from it in a fixed order, which is what makes the
// result a pure function of the seed.
func (r *Runner) Run(runs int, rng *rand.Rand) (*Result, error) {
	if rng == nil {
		return nil, errors.New("sim: Run requires a non-nil rng")
	}
	if runs <= 0 {
		return nil, fmt.Errorf("sim: runs must be positive, got %d", runs)
	}
	d := r.D
	n := d.Topo.NumNodes()
	diam, err := d.Topo.Diameter()
	if err != nil {
		return nil, err
	}
	var inj *injector
	if !r.Faults.Empty() {
		if err := r.Faults.Validate(n); err != nil {
			return nil, err
		}
		inj = newInjector(r.Faults)
	}
	clocks := make([]*clock, n)
	for i := range clocks {
		clocks[i] = newClock(r.Clocks, rng)
	}
	// Nodes boot synchronized at t=0 (deployment-time sync), matching
	// how an LWB host starts a network.
	for _, c := range clocks {
		c.synced = true
	}
	res := &Result{TaskSeqs: make(map[dag.TaskID]wh.Seq, d.App.NumTasks())}
	for _, t := range d.App.Tasks() {
		res.TaskSeqs[t.ID] = make(wh.Seq, runs)
	}
	var beaconPairs, capturedPairs, desyncPairs int

	for k := 0; k < runs; k++ {
		base := int64(k) * r.PeriodUS
		beaconHeard := make([][]bool, len(d.Sched.Rounds))
		msgDelivered := make(map[dag.MsgID][]bool)
		for ri, round := range d.Sched.Rounds {
			t := base + round.Start
			// Fault environment for this round: advance the burst-loss
			// chains, resolve crashed nodes and PRR scaling. A node that
			// is down loses its synchronization state — after the crash
			// window it rejoins the way any desynchronized LWB node does,
			// by capturing a beacon.
			var up []bool                    // nil: everyone up
			var scale func(a, b int) float64 // nil: no PRR scaling
			blackout := false
			if inj != nil {
				inj.roundStart(rng)
				up = make([]bool, n)
				for v := range up {
					up[v] = !inj.nodeDown(v, t)
					if !up[v] {
						clocks[v].synced = false
					}
				}
				scale = func(a, b int) float64 { return inj.linkScale(a, b, t) }
				blackout = inj.blackout(t) || !up[d.Host]
			}
			inGuard := make([]bool, n)
			listening := make([]bool, n)
			for v, c := range clocks {
				c.advance(t)
				inGuard[v] = c.inGuard()
				if !inGuard[v] {
					desyncPairs++
				}
				// A node that believes it is synchronized but has drifted
				// past its guard wakes too early or too late for this
				// round's beacon and drops to listening from then on.
				listening[v] = inGuard[v] || !c.synced || v == d.Host
				if !listening[v] {
					c.synced = false
				}
			}
			// Beacon flood: captured by every powered node that is
			// listening for it — unless the beacon is blacked out or the
			// host itself is down, in which case nobody hears the round
			// layout.
			beaconPairs += n
			if blackout {
				beaconHeard[ri] = make([]bool, n)
			} else {
				btopo := d.Topo
				if inj != nil {
					btopo = faultedTopology(d.Topo, up, scale)
				}
				maxSlots := int(d.Params.HopSlots(round.BeaconNTX, diam))
				fr, err := glossy.SimulateFlood(btopo, d.Host, round.BeaconNTX, maxSlots, rng)
				if err != nil {
					return nil, err
				}
				beaconHeard[ri] = fr.Received
				for v, got := range fr.Received {
					if got && listening[v] && (up == nil || up[v]) {
						capturedPairs++
						clocks[v].resync(t, rng)
						inGuard[v] = clocks[v].inGuard()
					}
				}
			}
			// Slot floods over the guard-masked topology. Crashed nodes
			// are never in guard (their sync state was wiped above), so
			// the guard mask subsumes the crash mask here.
			masked := maskTopology(d.Topo, inGuard, scale)
			for _, slot := range round.Slots {
				m := d.App.Message(slot.Msg)
				src := d.NodeIndex[d.App.Task(m.Source).Node]
				if !beaconHeard[ri][src] || !inGuard[src] {
					msgDelivered[m.ID] = make([]bool, n)
					continue
				}
				sm := int(d.Params.HopSlots(slot.NTX, diam))
				sf, err := glossy.SimulateFlood(masked, src, slot.NTX, sm, rng)
				if err != nil {
					return nil, err
				}
				// A receiver out of guard cannot capture its slot even
				// if radio waves reached it.
				recv := make([]bool, n)
				for v := range recv {
					recv[v] = sf.Received[v] && inGuard[v]
				}
				msgDelivered[m.ID] = recv
			}
		}
		// Task success, as in the abstract executor.
		order, err := d.App.TopoOrder()
		if err != nil {
			return nil, err
		}
		taskOK := make(map[dag.TaskID]bool, d.App.NumTasks())
		for _, id := range order {
			ok := true
			node := d.NodeIndex[d.App.Task(id).Node]
			for _, p := range d.App.Preds(id) {
				if d.App.OrderOnly(p, id) {
					continue
				}
				if !taskOK[p] {
					ok = false
					break
				}
				if !d.App.ConsumesMessage(p, id) {
					continue
				}
				m, _ := d.App.MessageOf(p)
				if got := msgDelivered[m.ID]; got == nil || !got[node] {
					ok = false
					break
				}
			}
			taskOK[id] = ok
			res.TaskSeqs[id][k] = ok
		}
	}
	if beaconPairs > 0 {
		res.BeaconCaptureRate = float64(capturedPairs) / float64(beaconPairs)
		res.DesyncRate = float64(desyncPairs) / float64(beaconPairs)
	}
	return res, nil
}

// maskTopology returns a copy of topo keeping only links between nodes
// in guard, with link PRRs optionally scaled by the fault environment.
func maskTopology(topo *network.Topology, inGuard []bool, scale func(a, b int) float64) *network.Topology {
	return faultedTopology(topo, inGuard, scale)
}
