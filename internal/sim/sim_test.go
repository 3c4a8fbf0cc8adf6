package sim

import (
	"math/rand"
	"testing"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/lwb"
	"github.com/netdag/netdag/internal/network"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(0x51a)) }

func deploy(t testing.TB, prr float64) *lwb.Deployment {
	t.Helper()
	g, err := apps.Pipeline(3, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := g.TaskByName("stage2")
	p := &core.Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 2,
		Mode:     core.Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: prr},
		SoftCons: map[dag.TaskID]float64{last.ID: 0.8},
	}
	s, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lwb.NewDeployment(g, s, network.Line(3, prr), p.Params)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestClockDriftAccumulatesAndResyncs(t *testing.T) {
	rng := testRNG()
	cfg := ClockConfig{DriftPPM: 100, SyncJitterUS: 0, GuardUS: 50}
	c := newClock(cfg, rng)
	c.synced = true
	// Drift magnitude is at most 100 ppm: after 1 s, error <= 100 µs.
	c.advance(1_000_000)
	if c.errorUS() > 100+1e-9 {
		t.Errorf("error %v µs exceeds the drift bound", c.errorUS())
	}
	// Resync clears the offset (zero jitter).
	c.resync(1_000_000, rng)
	if c.errorUS() != 0 {
		t.Errorf("post-resync error %v, want 0", c.errorUS())
	}
	if !c.inGuard() {
		t.Error("freshly synced clock must be in guard")
	}
}

func TestClockMonotonicity(t *testing.T) {
	rng := testRNG()
	c := newClock(DefaultClockConfig(), rng)
	c.advance(10)
	defer func() {
		if recover() == nil {
			t.Error("backwards clock advance did not panic")
		}
	}()
	c.advance(5)
}

func TestNewRunnerValidation(t *testing.T) {
	d := deploy(t, 0.9)
	if _, err := NewRunner(nil, DefaultClockConfig(), 1_000_000); err == nil {
		t.Error("nil deployment accepted")
	}
	if _, err := NewRunner(d, ClockConfig{DriftPPM: -1}, 1_000_000); err == nil {
		t.Error("invalid clocks accepted")
	}
	if _, err := NewRunner(d, DefaultClockConfig(), d.Sched.Makespan-1); err == nil {
		t.Error("period below makespan accepted")
	}
}

func TestTimedRunMatchesAbstractUnderGoodClocks(t *testing.T) {
	// With generous guards, frequent rounds, and strong links, clocking
	// must not change the picture: hit rates stay near the abstract
	// executor's.
	d := deploy(t, 0.95)
	r, err := NewRunner(d, DefaultClockConfig(), d.Sched.Makespan+10_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(1500, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if res.BeaconCaptureRate < 0.9 {
		t.Errorf("beacon capture rate %v suspiciously low", res.BeaconCaptureRate)
	}
	if res.DesyncRate > 0.01 {
		t.Errorf("desync rate %v with healthy clocks", res.DesyncRate)
	}
	last, _ := d.App.TaskByName("stage2")
	if rate := res.TaskSeqs[last.ID].HitRate(); rate < 0.75 {
		t.Errorf("end task hit rate %v under healthy clocks", rate)
	}
}

func TestZeroGuardBreaksSlots(t *testing.T) {
	// A guard of zero with drifting clocks means nodes fall out of
	// alignment as soon as a beacon is missed or jitter lands; end-task
	// success must suffer relative to generous guards.
	d := deploy(t, 0.9)
	period := d.Sched.Makespan + 100_000
	healthy, err := NewRunner(d, ClockConfig{DriftPPM: 40, SyncJitterUS: 2, GuardUS: 500}, period)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := NewRunner(d, ClockConfig{DriftPPM: 40, SyncJitterUS: 2, GuardUS: 0}, period)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := healthy.Run(800, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := broken.Run(800, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	last, _ := d.App.TaskByName("stage2")
	if rb.TaskSeqs[last.ID].HitRate() >= rh.TaskSeqs[last.ID].HitRate() {
		t.Errorf("zero guard (%v) not worse than healthy guard (%v)",
			rb.TaskSeqs[last.ID].HitRate(), rh.TaskSeqs[last.ID].HitRate())
	}
	if rb.DesyncRate <= rh.DesyncRate {
		t.Errorf("zero guard desync rate %v not above healthy %v", rb.DesyncRate, rh.DesyncRate)
	}
}

// TestDriftPastGuardLosesRoundAndRejoins: a node whose clock drifts past
// its guard misses that round's beacon and slots, then rejoins on the
// next beacon. With perfect links and no jitter, the guard covers the
// drift between a run's two rounds but not the 10 s gap to the next run,
// so from the second run on both non-host nodes lose each run's first
// round, and with it stage1's input.
func TestDriftPastGuardLosesRoundAndRejoins(t *testing.T) {
	d := deploy(t, 1)
	rounds := d.Sched.Rounds
	if len(rounds) != 2 || d.Host != 0 {
		t.Fatalf("want 2 rounds hosted on node 0, got %d rounds on node %d", len(rounds), d.Host)
	}
	cfg := ClockConfig{DriftPPM: 100}
	cfg.GuardUS = cfg.DriftPPM*float64(rounds[1].Start-rounds[0].Start)/1e6 + 1
	r, err := NewRunner(d, cfg, d.Sched.Makespan+10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	res, err := r.Run(runs, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	last, _ := d.App.TaskByName("stage2")
	for k, hit := range res.TaskSeqs[last.ID] {
		if hit != (k == 0) {
			t.Errorf("run %d: end task hit = %v, want a hit only in the first run", k, hit)
		}
	}
	// Each drifted node misses one beacon per run after the first.
	n := d.Topo.NumNodes()
	pairs := n * len(rounds) * runs
	if want := float64(pairs-(n-1)*(runs-1)) / float64(pairs); res.BeaconCaptureRate != want {
		t.Errorf("beacon capture rate %v, want %v", res.BeaconCaptureRate, want)
	}
}

func TestLongPeriodNeedsBiggerGuard(t *testing.T) {
	// Stretching the period (more drift between beacons) with a tight
	// guard must raise the desync rate.
	d := deploy(t, 0.95)
	cfg := ClockConfig{DriftPPM: 80, SyncJitterUS: 2, GuardUS: 40}
	short, err := NewRunner(d, cfg, d.Sched.Makespan+50_000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewRunner(d, cfg, d.Sched.Makespan+3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := short.Run(600, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	rl, err := long.Run(600, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if rl.DesyncRate <= rs.DesyncRate {
		t.Errorf("long period desync %v not above short period %v", rl.DesyncRate, rs.DesyncRate)
	}
}

func TestRequiredGuard(t *testing.T) {
	cfg := ClockConfig{DriftPPM: 40, SyncJitterUS: 2}
	// One period at 40 ppm over 1 s = 40 µs drift + 8 µs jitter margin.
	if got := RequiredGuardUS(cfg, 1_000_000, 0); got != 48 {
		t.Errorf("RequiredGuardUS = %v, want 48", got)
	}
	// Tolerating 2 missed beacons triples the drift horizon.
	if got := RequiredGuardUS(cfg, 1_000_000, 2); got != 128 {
		t.Errorf("RequiredGuardUS(miss=2) = %v, want 128", got)
	}
	if RequiredGuardUS(cfg, 1_000_000, -5) != RequiredGuardUS(cfg, 1_000_000, 0) {
		t.Error("negative tolerance not clamped")
	}
}

// TestProvisionedGuardSurvivesBeaconLoss closes the loop: provision the
// guard for a 3-miss tolerance with RequiredGuardUS and verify the timed
// simulation stays synchronized even over lossy links that drop beacons.
func TestProvisionedGuardSurvivesBeaconLoss(t *testing.T) {
	d := deploy(t, 0.8) // lossy: beacons will be missed sometimes
	period := d.Sched.Makespan + 1_000_000
	cfg := ClockConfig{DriftPPM: 60, SyncJitterUS: 2}
	cfg.GuardUS = RequiredGuardUS(cfg, period, 3)
	r, err := NewRunner(d, cfg, period)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(800, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	if res.DesyncRate > 0.02 {
		t.Errorf("desync rate %v despite provisioned guard %v µs", res.DesyncRate, cfg.GuardUS)
	}
}

func TestRunValidation(t *testing.T) {
	d := deploy(t, 0.9)
	r, err := NewRunner(d, DefaultClockConfig(), d.Sched.Makespan+1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0, testRNG()); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := r.Run(10, nil); err == nil {
		t.Error("nil rng accepted")
	}
}
