package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/multirate"
	"github.com/netdag/netdag/internal/wh"
)

// avMultiRateProblem builds the multi-rate AV-style fixture of the
// instance-symmetry tests: three identical cameras at rate 2 (an
// interchange class of three two-phase chains) plus a lidar, a rate-2
// fusion stage, a planner and a rate-2 controller under weakly-hard
// constraints, unrolled over the hyperperiod with the instance metadata
// plumbed into InstanceChains.
func avMultiRateProblem(t testing.TB) *Problem {
	t.Helper()
	g := dag.New()
	cams := make([]dag.TaskID, 3)
	for i := range cams {
		cams[i] = g.MustAddTask(fmt.Sprintf("cam%d", i), fmt.Sprintf("ncam%d", i), 400)
	}
	lidar := g.MustAddTask("lidar", "nlidar", 600)
	fuse := g.MustAddTask("fuse", "nfuse", 900)
	plan := g.MustAddTask("plan", "nplan", 1200)
	ctrl := g.MustAddTask("ctrl", "nctrl", 200)
	for _, c := range cams {
		g.MustConnect(c, fuse, 8)
	}
	g.MustConnect(lidar, fuse, 12)
	g.MustConnect(fuse, plan, 8)
	g.MustConnect(plan, ctrl, 4)
	res, err := multirate.Unroll(multirate.Spec{App: g, Rates: map[dag.TaskID]int{
		cams[0]: 2, cams[1]: 2, cams[2]: 2, fuse: 2, ctrl: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	cons := multirate.SpreadConstraints(res, map[dag.TaskID]wh.MissConstraint{
		ctrl: {Misses: 24, Window: 40},
	})
	return &Problem{
		App:            res.Graph,
		Params:         glossy.DefaultParams(),
		Diameter:       3,
		Mode:           WeaklyHard,
		WHStat:         glossy.SyntheticWH{},
		WHCons:         cons,
		InstanceChains: res.Chains(),
	}
}

// TestInterchangeClasses pins the symmetry detection on the switched
// app: the sensors form one interchange class; the controller messages
// (distinct WCETs upstream, distinct destination sets) form none.
func TestInterchangeClasses(t *testing.T) {
	sw, err := apps.Switched(apps.DefaultSwitched())
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		App: sw, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{sw.Sinks()[0]: 0.85},
	}
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(p.iclasses) != 1 {
		t.Fatalf("iclasses = %v, want exactly one class (the sensors)", p.iclasses)
	}
	cls := p.iclasses[0]
	if len(cls) != 2 {
		t.Fatalf("sensor class = %v, want 2 members", cls)
	}
	for _, tup := range cls {
		if len(tup) != 1 {
			t.Fatalf("sensor member %v, want a singleton tuple", tup)
		}
		src := sw.Task(sw.Message(tup[0]).Source)
		if src.WCET != 500 {
			t.Errorf("class member %d sourced by %q (wcet %d), want a sensor", tup[0], src.Name, src.WCET)
		}
	}
	m0, m1 := cls[0][0], cls[1][0]

	// Descending rounds with equal chi: dominated. Unequal chi: not.
	assign := make([]int, sw.NumMessages())
	chi := make([]int, sw.NumMessages()+2)
	for i := range chi {
		chi[i] = 2
	}
	assign[m0], assign[m1] = 1, 0
	if !p.dominatedAssignment(assign, chi) {
		t.Error("descending class rounds with equal chi not flagged as dominated")
	}
	chi[m0] = 3
	if p.dominatedAssignment(assign, chi) {
		t.Error("asymmetric chi tie-break must disable the symmetry skip")
	}
	assign[m0], assign[m1] = 0, 1
	if p.dominatedAssignment(assign, chi) {
		t.Error("ascending class rounds flagged as dominated")
	}

	// A release time on one sensor breaks the interchangeability.
	p2 := &Problem{
		App: sw, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:         Soft,
		SoftStat:     glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons:     map[dag.TaskID]float64{sw.Sinks()[0]: 0.85},
		ReleaseTimes: map[dag.TaskID]int64{sw.Message(m0).Source: 100},
	}
	if err := p2.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(p2.iclasses) != 0 {
		t.Errorf("iclasses = %v despite a release time distinguishing the sensors", p2.iclasses)
	}
}

// TestInstanceChainClasses pins the chain-tuple detection: the three
// camera chains form one interchange class of three two-phase tuples;
// the fusion/planner/controller chains (message predecessors, or
// single-member signatures) form none.
func TestInstanceChainClasses(t *testing.T) {
	p := avMultiRateProblem(t)
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(p.iclasses) != 1 {
		t.Fatalf("iclasses = %v, want exactly the camera-chain class", p.iclasses)
	}
	cls := p.iclasses[0]
	if len(cls) != 3 {
		t.Fatalf("camera class has %d members, want 3", len(cls))
	}
	for i, tup := range cls {
		if len(tup) != 2 {
			t.Fatalf("member %d = %v, want a two-phase tuple", i, tup)
		}
		for _, m := range tup {
			src := p.App.Task(p.App.Message(m).Source)
			if src.WCET != 400 {
				t.Errorf("member %d message %d sourced by %q, want a camera instance", i, m, src.Name)
			}
		}
	}

	// Descending member vectors with per-phase chi equality: dominated.
	assign := make([]int, p.App.NumMessages())
	chi := make([]int, p.App.NumMessages()+3)
	for i := range chi {
		chi[i] = 2
	}
	assign[cls[0][0]], assign[cls[1][0]] = 1, 0
	if !p.dominatedAssignment(assign, chi) {
		t.Error("descending chain vectors with symmetric chi not flagged as dominated")
	}
	// Asymmetric chi on a later phase disables the skip.
	chi[cls[1][1]] = 3
	if p.dominatedAssignment(assign, chi) {
		t.Error("per-phase chi asymmetry must disable the symmetry skip")
	}
	// Ascending vectors are the representatives.
	assign[cls[0][0]], assign[cls[1][0]], assign[cls[2][0]] = 0, 1, 2
	chi[cls[1][1]] = 2
	if p.dominatedAssignment(assign, chi) {
		t.Error("ascending chain vectors flagged as dominated")
	}

	// NoSymmetry drops the classes entirely.
	q := avMultiRateProblem(t)
	q.NoSymmetry = true
	if err := q.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(q.iclasses) != 0 {
		t.Errorf("NoSymmetry left iclasses = %v", q.iclasses)
	}

	// Metadata is advisory: garbage chains must be ignored, not trusted.
	r := avMultiRateProblem(t)
	r.InstanceChains = append(r.InstanceChains, []dag.TaskID{999, 1000}, nil, []dag.TaskID{0, 0})
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	if len(r.iclasses) != 1 {
		t.Errorf("garbage chain metadata changed the classes: %v", r.iclasses)
	}
}

// TestInstanceSymmetryEquivalence is the makespan-preservation
// differential: with the symmetry skip and the chi-floor bound enabled
// (default) and disabled (the ablation knobs), the solved schedules are
// bit-identical across worker counts. Only SolverNodes, the work
// accounting, is documented as outside the schedule identity.
func TestInstanceSymmetryEquivalence(t *testing.T) {
	var ref *Schedule
	for _, workers := range []int{1, 4} {
		for _, disabled := range []bool{false, true} {
			p := avMultiRateProblem(t)
			p.Workers = workers
			p.NoSymmetry = disabled
			p.NoChiFloors = disabled
			s, err := Solve(p)
			if err != nil {
				t.Fatalf("workers=%d disabled=%v: %v", workers, disabled, err)
			}
			if !s.Optimal {
				t.Fatalf("workers=%d disabled=%v: not optimal", workers, disabled)
			}
			norm := *s
			norm.SolverNodes = 0
			if ref == nil {
				r := norm
				ref = &r
				if err := s.Validate(p.App); err != nil {
					t.Fatalf("reference schedule invalid: %v", err)
				}
				for id, c := range p.WHCons {
					guar, ok, err := SatisfiedWH(p, s, id)
					if err != nil || !ok {
						t.Fatalf("audit of task %d: ok=%v err=%v", id, ok, err)
					}
					if !wh.SufficientlyImpliesMiss(guar, c) {
						t.Errorf("task %d guarantee %v misses requirement %v", id, guar, c)
					}
				}
				continue
			}
			if !reflect.DeepEqual(&norm, ref) {
				t.Errorf("workers=%d disabled=%v: schedule differs from reference\ngot:  %+v\nwant: %+v",
					workers, disabled, norm, *ref)
			}
		}
	}
}

// TestChiFloorDPMatchesLegacy cross-checks the χ floors newSearch reads
// from chiCons against their definition: for the AV fixture,
// chiFloor[m] must equal the maximum window floor over constrained tasks
// m reaches via data edges.
func TestChiFloorDPMatchesLegacy(t *testing.T) {
	check := func(name string, p *Problem) {
		t.Helper()
		if err := p.normalize(); err != nil {
			t.Fatal(err)
		}
		lg, err := dag.NewLineGraph(p.App)
		if err != nil {
			t.Fatal(err)
		}
		s := newSearch(nil, p, lg, lg.MinRounds())
		want := make([]int, p.App.NumMessages())
		for m := range want {
			want[m] = p.MinNTX
		}
		for _, task := range p.App.Tasks() {
			target, has := p.WHCons[task.ID]
			if !has || target.Trivial() {
				continue
			}
			minN, ok := p.minNTXForWindow(target.Window)
			if !ok {
				minN = p.MaxNTX
			}
			for _, m := range p.App.MsgAncestors(task.ID) {
				if minN > want[m] {
					want[m] = minN
				}
			}
		}
		for m := range want {
			if s.chiFloor[m] != want[m] {
				t.Errorf("%s: chiFloor[%d] = %d, want %d", name, m, s.chiFloor[m], want[m])
			}
		}
	}
	check("av", avMultiRateProblem(t))

	p := avMultiRateProblem(t)
	p.NoChiFloors = true
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	lg, err := dag.NewLineGraph(p.App)
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(nil, p, lg, lg.MinRounds())
	for m, f := range s.chiFloor {
		if f != p.MinNTX {
			t.Errorf("NoChiFloors: chiFloor[%d] = %d, want the MinNTX floor %d", m, f, p.MinNTX)
		}
	}
}
