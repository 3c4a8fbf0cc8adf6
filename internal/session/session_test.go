package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/backoff"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/sim"
	"github.com/netdag/netdag/internal/spec"
)

// testFile is a three-task soft-mode pipeline across three nodes — small
// enough that every re-solve is milliseconds, rich enough to exercise
// joins, leaves, placement moves and constraint bookkeeping.
func testFile() *spec.File {
	return &spec.File{
		Mode:     "soft",
		Diameter: 2,
		Tasks: []spec.TaskSpec{
			{Name: "sense", Node: "n0", WCET: 400},
			{Name: "fuse", Node: "n1", WCET: 400},
			{Name: "act", Node: "n2", WCET: 400},
		},
		Edges: []spec.EdgeSpec{
			{From: "sense", To: "fuse", Width: 4},
			{From: "fuse", To: "act", Width: 4},
		},
		SoftStatistic:   &spec.StatSpec{Type: "bernoulli", PerTX: 0.9},
		SoftConstraints: map[string]float64{"act": 0.9},
	}
}

func newTestSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	s, err := New(context.Background(), testFile(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	s := newTestSession(t, Config{})

	j := s.Journal(0)
	if len(j) != 1 || j[0].Outcome != OutcomeInit || j[0].State != StateActive || j[0].Seq != 1 {
		t.Fatalf("init journal = %+v", j)
	}
	initMakespan := j[0].Makespan

	// A placement move re-solves and commits.
	e, err := s.Apply(ctx, Event{Kind: KindPlacement, Task: "fuse", Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeApplied || e.State != StateActive || e.Seq != 2 || e.Attempts != 1 {
		t.Fatalf("placement entry = %+v", e)
	}
	if e.Makespan > initMakespan {
		t.Errorf("co-locating two pipeline stages should not raise the makespan above %d; entry = %+v", initMakespan, e)
	}

	// A malformed event is journaled as rejected, not an error.
	e, err = s.Apply(ctx, Event{Kind: KindPlacement, Task: "ghost", Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeRejected || !errorsContains(e.Error, "unknown task") {
		t.Fatalf("ghost placement entry = %+v", e)
	}
	if e.Makespan == 0 {
		t.Error("rejected entry should report the standing schedule's makespan")
	}

	// Join, then leave: the task set round-trips.
	e, err = s.Apply(ctx, Event{
		Kind: KindTaskJoin, Task: "log", Node: "n1", WCET: 300,
		Edges: []spec.EdgeSpec{{From: "fuse", To: "log", Width: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeApplied {
		t.Fatalf("join entry = %+v", e)
	}
	if f := s.File(); len(f.Tasks) != 4 || len(f.Edges) != 3 {
		t.Fatalf("after join: %d tasks, %d edges", len(f.Tasks), len(f.Edges))
	}
	e, err = s.Apply(ctx, Event{Kind: KindTaskLeave, Task: "log"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeApplied {
		t.Fatalf("leave entry = %+v", e)
	}
	if f := s.File(); len(f.Tasks) != 3 || len(f.Edges) != 2 {
		t.Fatalf("after leave: %d tasks, %d edges", len(f.Tasks), len(f.Edges))
	}

	st := s.Stats()
	if st.Events != 4 || st.Applied != 3 || st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}
	if v := s.Status(); v.State != StateActive || v.Seq != 5 || v.Tasks != 3 || !v.Optimal {
		t.Errorf("status = %+v", v)
	}
}

func errorsContains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestSessionDegradedAndRecovery walks the full state machine: an
// environment fact that makes the problem unsolvable commits anyway and
// installs the safe mode; lowering the retransmission floor again
// re-solves and retires it as a recovery.
func TestSessionDegradedAndRecovery(t *testing.T) {
	ctx := context.Background()
	s := newTestSession(t, Config{SafeDiameters: []int{2, 4}})

	// MinNTX beyond MaxNTX: the χ domain is empty, every re-solve reports
	// ErrUnsat, but the fact commits and safe mode takes over.
	e, err := s.Apply(ctx, Event{Kind: KindLink, MinNTX: core.DefaultMaxNTX + 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeDegraded || e.State != StateDegraded || e.SafeDiameter != 2 {
		t.Fatalf("degrade entry = %+v", e)
	}
	if e.Attempts != 1 {
		t.Errorf("deterministic failure took %d attempts, want 1 (never retried)", e.Attempts)
	}
	if f := s.File(); f.MinNTX != core.DefaultMaxNTX+1 {
		t.Errorf("environment fact did not commit: MinNTX = %d", f.MinNTX)
	}
	prob, sched, state := s.Current()
	if state != StateDegraded || !sched.Optimal || sched.Validate(prob.App) != nil {
		t.Fatal("degraded session must still expose a proven safe-mode schedule")
	}
	// The safe mode is the most conservative χ: every flood at MaxNTX.
	for _, r := range sched.Rounds {
		if r.BeaconNTX != core.DefaultMaxNTX {
			t.Errorf("safe-mode beacon NTX = %d, want %d", r.BeaconNTX, core.DefaultMaxNTX)
		}
		for _, sl := range r.Slots {
			if sl.NTX != core.DefaultMaxNTX {
				t.Errorf("safe-mode slot NTX = %d, want %d", sl.NTX, core.DefaultMaxNTX)
			}
		}
	}

	// Degraded events while degraded do not re-count a mode switch.
	if _, err := s.Apply(ctx, Event{Kind: KindLink, MinNTX: core.DefaultMaxNTX + 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ModeSwitches != 1 || st.Fallbacks != 2 {
		t.Errorf("stats after second degrade = %+v", st)
	}

	// A diameter the table does not cover installs the widest mode with a
	// note.
	e, err = s.Apply(ctx, Event{Kind: KindDiameter, Diameter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeDegraded || e.SafeDiameter != 4 || e.Note == "" {
		t.Fatalf("uncovered-diameter entry = %+v", e)
	}

	// Recovery: the floor drops back into the domain, the re-solve
	// succeeds, safe mode retires.
	e, err = s.Apply(ctx, Event{Kind: KindLink, MinNTX: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeRecovered || e.State != StateActive {
		t.Fatalf("recovery entry = %+v", e)
	}
	st := s.Stats()
	if st.Recoveries != 1 || st.ModeSwitches != 2 || st.Fallbacks != 3 {
		t.Errorf("stats after recovery = %+v", st)
	}
}

// TestSessionWorkloadRejected pins the asymmetry between workload and
// environment events: a join the solver cannot prove is refused and
// leaves both the schedule and the description untouched.
func TestSessionWorkloadRejected(t *testing.T) {
	ctx := context.Background()
	s := newTestSession(t, Config{})
	_, before, _ := s.Current()

	// Push the session into the unsolvable regime first, then try to
	// admit work: environment degrades, workload is rejected.
	if _, err := s.Apply(ctx, Event{Kind: KindLink, MinNTX: core.DefaultMaxNTX + 1}); err != nil {
		t.Fatal(err)
	}
	e, err := s.Apply(ctx, Event{
		Kind: KindTaskJoin, Task: "log", Node: "n1", WCET: 300,
		Edges: []spec.EdgeSpec{{From: "fuse", To: "log", Width: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeRejected {
		t.Fatalf("unsolvable join entry = %+v", e)
	}
	if f := s.File(); len(f.Tasks) != 3 {
		t.Error("rejected join leaked into the description")
	}
	_, after, _ := s.Current()
	if after.Makespan != before.Makespan && !after.Optimal {
		t.Error("rejected join displaced the active schedule")
	}
}

// TestSessionRetryBackoff forces per-attempt deadline expiry and checks
// the retry loop: MaxAttempts solves, jitter-free exponential backoff
// between them, then safe-mode fallback for the environment fact.
func TestSessionRetryBackoff(t *testing.T) {
	ctx := context.Background()
	s := newTestSession(t, Config{MaxAttempts: 3})
	var slept []time.Duration
	// White-box: tighten the deadline after the initial solve so every
	// subsequent attempt's context is born expired.
	s.cfg.ResolveDeadline = time.Nanosecond
	s.cfg.Sleep = func(d time.Duration) { slept = append(slept, d) }

	e, err := s.Apply(ctx, Event{Kind: KindPlacement, Task: "fuse", Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Outcome != OutcomeDegraded || e.Attempts != 3 {
		t.Fatalf("timed-out placement entry = %+v", e)
	}
	var p backoff.Policy
	want := []time.Duration{p.Delay(0, nil), p.Delay(1, nil)}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}

	// An expired outer context is the caller's problem: no journal entry,
	// the event stays re-appliable.
	seq := s.Status().Seq
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Apply(cctx, Event{Kind: KindDiameter, Diameter: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired-context Apply err = %v", err)
	}
	if s.Status().Seq != seq {
		t.Error("expired-context Apply was journaled")
	}
}

func TestSessionWaitAndClose(t *testing.T) {
	ctx := context.Background()
	s := newTestSession(t, Config{})

	got := make(chan []Entry, 1)
	go func() {
		es, err := s.Wait(ctx, 1) // past the init entry
		if err != nil {
			got <- nil
			return
		}
		got <- es
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Apply(ctx, Event{Kind: KindDiameter, Diameter: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case es := <-got:
		if len(es) != 1 || es[0].Seq != 2 {
			t.Fatalf("Wait returned %+v", es)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not unblock on journal append")
	}

	s.Close()
	if _, err := s.Wait(ctx, 99); !errors.Is(err, ErrClosed) {
		t.Errorf("Wait on closed session err = %v", err)
	}
	if _, err := s.Apply(ctx, Event{Kind: KindDiameter, Diameter: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply on closed session err = %v", err)
	}
	if len(s.Journal(0)) != 2 {
		t.Error("journal must stay readable after Close")
	}
}

// TestSessionJournalDeterminism replays one event script under different
// worker counts and again under the same seed: the JSONL journals must
// be byte-identical — the session's core reproducibility claim.
func TestSessionJournalDeterminism(t *testing.T) {
	script := []Event{
		{Kind: KindPlacement, Task: "fuse", Node: "n0"},
		{Kind: KindTaskJoin, Task: "log", Node: "n1", WCET: 300,
			Edges: []spec.EdgeSpec{{From: "fuse", To: "log", Width: 2}}},
		{Kind: KindLink, MinNTX: 3},
		{Kind: KindDiameter, Diameter: 4},
		{Kind: KindLink, MinNTX: core.DefaultMaxNTX + 1},
		{Kind: KindPlacement, Task: "ghost", Node: "n1"},
		{Kind: KindLink, MinNTX: 2},
		{Kind: KindTaskLeave, Task: "log"},
	}
	run := func(workers int) []byte {
		s, err := New(context.Background(), testFile(), Config{Workers: workers, SafeDiameters: []int{2, 4}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, e := range script {
			if _, err := s.Apply(context.Background(), e); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := s.WriteJournal(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1 := run(1)
	j4 := run(4)
	j1b := run(1)
	if !bytes.Equal(j1, j4) {
		t.Errorf("journal differs between Workers=1 and Workers=4:\n%s\n---\n%s", j1, j4)
	}
	if !bytes.Equal(j1, j1b) {
		t.Errorf("journal differs between identical runs:\n%s\n---\n%s", j1, j1b)
	}
}

// TestSessionSoak is the CI soak: a session under the examples/faults
// mixed campaign closed loop for hundreds of events, with mobility and
// churn, run twice at different worker counts. The journals must be
// byte-identical and the process must not leak goroutines after Close.
func TestSessionSoak(t *testing.T) {
	events := 200
	if testing.Short() {
		events = 30
	}
	sf, err := os.Open("../../examples/faults/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := sim.LoadScenario(sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	run := func(workers int) ([]byte, *LoopResult, Stats) {
		s, err := New(context.Background(), testFile(), Config{Workers: workers, SafeDiameters: []int{2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunLoop(context.Background(), s, LoopConfig{
			Events:       events,
			Seed:         42,
			Scenario:     scenario,
			Replications: 2,
			Runs:         8,
			Workers:      workers,
			Mobility:     true,
			Churn:        "act",
			ChurnEvery:   5,
		})
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJournal(&buf); err != nil {
			t.Fatal(err)
		}
		st := s.Close()
		return buf.Bytes(), res, st
	}

	j1, res1, st1 := run(1)
	j4, res4, _ := run(4)

	if res1.Events < events {
		t.Errorf("loop drove %d events, want >= %d", res1.Events, events)
	}
	if !bytes.Equal(j1, j4) {
		d1, d4 := firstDiffLine(j1, j4)
		t.Errorf("soak journal differs between Workers=1 and Workers=4:\nW1: %s\nW4: %s", d1, d4)
	}
	if res1.Iterations != res4.Iterations || res1.ViolatedIterations != res4.ViolatedIterations {
		t.Errorf("loop results diverge: %+v vs %+v", res1, res4)
	}
	if st1.Events == 0 || st1.Resolves == 0 {
		t.Errorf("soak stats look empty: %+v", st1)
	}
	t.Logf("soak: %d events over %d iterations, %d violated, stats %+v",
		res1.Events, res1.Iterations, res1.ViolatedIterations, st1)

	// Drain check: give solver/campaign pools a moment to exit, then
	// require the goroutine count back at (or below) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak after drain: %d > %d\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

func firstDiffLine(a, b []byte) (string, string) {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return string(la[i]), string(lb[i])
		}
	}
	return fmt.Sprintf("len %d", len(la)), fmt.Sprintf("len %d", len(lb))
}
