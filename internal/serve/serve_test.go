package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
)

// pipelineSpec is a small solvable weakly-hard spec; diameter varies the
// fingerprint without changing the shape.
func pipelineSpec(diameter int) string {
	return fmt.Sprintf(`{
  "mode": "weakly-hard",
  "diameter": %d,
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
}`, diameter)
}

func postSolve(t *testing.T, s *Server, body, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve"+query, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestSolveThenCacheHit(t *testing.T) {
	s := New(Config{})
	r1 := postSolve(t, s, pipelineSpec(3), "")
	if r1.Code != http.StatusOK {
		t.Fatalf("first solve: status %d, body %s", r1.Code, r1.Body)
	}
	if got := r1.Header().Get(cacheHeader); got != "miss" {
		t.Errorf("first solve cache header = %q, want miss", got)
	}
	var out spec.ScheduleOut
	if err := json.Unmarshal(r1.Body.Bytes(), &out); err != nil {
		t.Fatalf("response is not a ScheduleOut: %v", err)
	}
	if !out.Optimal || out.MakespanUS <= 0 || len(out.Rounds) == 0 {
		t.Errorf("implausible schedule: optimal=%v makespan=%d rounds=%d",
			out.Optimal, out.MakespanUS, len(out.Rounds))
	}

	r2 := postSolve(t, s, pipelineSpec(3), "")
	if r2.Code != http.StatusOK {
		t.Fatalf("second solve: status %d", r2.Code)
	}
	if got := r2.Header().Get(cacheHeader); got != "hit" {
		t.Errorf("second solve cache header = %q, want hit", got)
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Error("cache hit served a different body than the original solve")
	}
	if h, m := s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load(); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
}

// TestCacheKeyIsCanonical: reordering tasks and edges (and whitespace)
// must hit the same cache entry.
func TestCacheKeyIsCanonical(t *testing.T) {
	s := New(Config{})
	if r := postSolve(t, s, pipelineSpec(3), ""); r.Code != http.StatusOK {
		t.Fatalf("seed solve: status %d", r.Code)
	}
	reordered := `{
  "mode": "weakly-hard", "diameter": 3,
  "tasks": [
    {"name": "act",   "node": "n2", "wcet": 300},
    {"name": "ctrl",  "node": "n1", "wcet": 2000},
    {"name": "sense", "node": "n0", "wcet": 500}
  ],
  "edges": [
    {"from": "ctrl",  "to": "act",  "width": 4},
    {"from": "sense", "to": "ctrl", "width": 8}
  ],
  "whStatistic": {"type": "synthetic"},
  "whConstraints": {"act": {"misses": 10, "window": 40}}
}`
	r := postSolve(t, s, reordered, "")
	if r.Code != http.StatusOK {
		t.Fatalf("reordered solve: status %d", r.Code)
	}
	if got := r.Header().Get(cacheHeader); got != "hit" {
		t.Errorf("reordered spec cache header = %q, want hit (canonicalization broken)", got)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the acceptance criterion:
// two concurrent identical POSTs perform exactly one solve, observable
// via the miss/coalesced counters.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	var solves atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{
		SolveFn: func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
			solves.Add(1)
			close(started)
			<-release
			return core.SolveContext(ctx, p)
		},
	})

	const followers = 3
	var wg sync.WaitGroup
	codes := make([]int, followers+1)
	headers := make([]string, followers+1)
	bodies := make([][]byte, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := postSolve(t, s, pipelineSpec(3), "")
		codes[0], headers[0], bodies[0] = r.Code, r.Header().Get(cacheHeader), r.Body.Bytes()
	}()
	<-started // the leader owns the flight before any follower arrives
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := postSolve(t, s, pipelineSpec(3), "")
			codes[i], headers[i], bodies[i] = r.Code, r.Header().Get(cacheHeader), r.Body.Bytes()
		}(i)
	}
	// Let the followers reach the flight before releasing the solve.
	waitFor(t, func() bool { return s.metrics.coalesced.Load() == followers })
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Fatalf("%d solves for %d concurrent identical requests, want 1", n, followers+1)
	}
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: body differs from leader's", i)
		}
	}
	if headers[0] != "miss" {
		t.Errorf("leader cache header = %q, want miss", headers[0])
	}
	for i := 1; i <= followers; i++ {
		if headers[i] != "coalesced" {
			t.Errorf("follower %d cache header = %q, want coalesced", i, headers[i])
		}
	}
	if m, c := s.metrics.cacheMisses.Load(), s.metrics.coalesced.Load(); m != 1 || c != followers {
		t.Errorf("misses=%d coalesced=%d, want 1/%d", m, c, followers)
	}
}

// TestDeadlineReturnsIncumbent: a solve interrupted at its deadline with
// an incumbent in hand answers 200 + optimal=false and is not cached.
func TestDeadlineReturnsIncumbent(t *testing.T) {
	s := New(Config{
		SolveFn: func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
			sched, err := core.SolveContext(context.Background(), p)
			if err != nil {
				return nil, err
			}
			sched.Optimal = false
			return sched, core.ErrCanceled
		},
	})
	r := postSolve(t, s, pipelineSpec(3), "?deadline=50ms")
	if r.Code != http.StatusOK {
		t.Fatalf("incumbent response: status %d, body %s", r.Code, r.Body)
	}
	if got := r.Header().Get(incompleteHeader); got != "deadline" {
		t.Errorf("%s = %q, want deadline", incompleteHeader, got)
	}
	var out spec.ScheduleOut
	if err := json.Unmarshal(r.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Optimal {
		t.Error("deadline-interrupted incumbent claims optimality")
	}
	if s.cache.len() != 0 {
		t.Error("incomplete solve was cached")
	}
	if s.metrics.incomplete.Load() != 1 {
		t.Errorf("incomplete counter = %d, want 1", s.metrics.incomplete.Load())
	}
}

// TestDeadlineWithoutIncumbentIs504.
func TestDeadlineWithoutIncumbentIs504(t *testing.T) {
	s := New(Config{
		SolveFn: func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
			<-ctx.Done()
			return nil, core.ErrCanceled
		},
	})
	start := time.Now()
	r := postSolve(t, s, pipelineSpec(3), "?deadline=30ms")
	if r.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", r.Code, r.Body)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("504 took %v; deadline not honored promptly", el)
	}
	if s.metrics.deadlineExpired.Load() != 1 {
		t.Errorf("deadlineExpired = %d, want 1", s.metrics.deadlineExpired.Load())
	}
}

// TestRealDeadlineOnRealSolver drives the actual core.SolveContext with
// a deadline that has already expired: the server must respond promptly
// rather than solve to completion.
func TestRealDeadlineOnRealSolver(t *testing.T) {
	s := New(Config{})
	r := postSolve(t, s, pipelineSpec(3), "?deadline=1ns")
	switch r.Code {
	case http.StatusGatewayTimeout:
		// no incumbent in time — the common case for a 1 ns budget
	case http.StatusOK:
		if got := r.Header().Get(incompleteHeader); got != "deadline" {
			t.Errorf("200 under an expired deadline must be marked incomplete, header %q", got)
		}
	default:
		t.Fatalf("status %d, want 200 (incumbent) or 504", r.Code)
	}
}

// TestAdmissionControl: with a budget of one solve and a queue of one,
// a third distinct concurrent request is turned away with 429.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := New(Config{
		MaxConcurrent: 1,
		QueueDepth:    1,
		SolveFn: func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
			entered <- struct{}{}
			<-release
			return core.SolveContext(ctx, p)
		},
	})
	var wg sync.WaitGroup
	// Distinct specs so nothing coalesces or hits the cache.
	wg.Add(1)
	go func() { defer wg.Done(); postSolve(t, s, pipelineSpec(3), "") }()
	<-entered // first request holds the only worker slot
	wg.Add(1)
	go func() { defer wg.Done(); postSolve(t, s, pipelineSpec(4), "") }()
	waitFor(t, func() bool { return s.metrics.queued.Load() == 1 })

	r := postSolve(t, s, pipelineSpec(5), "")
	if r.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429", r.Code)
	}
	if r.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	wg.Wait()
	if s.metrics.admissionRejected.Load() != 1 {
		t.Errorf("admissionRejected = %d, want 1", s.metrics.admissionRejected.Load())
	}
}

func TestBadSpecIs400(t *testing.T) {
	s := New(Config{})
	for name, body := range map[string]string{
		"not json":         "{",
		"unknown field":    `{"mode": "soft", "bogus": 1}`,
		"no tasks":         `{"mode": "soft", "diameter": 3, "softStatistic": {"type": "bernoulli", "perTX": 0.9}}`,
		"duplicate task":   `{"mode": "weakly-hard", "diameter": 3, "tasks": [{"name": "a", "node": "n", "wcet": 1}, {"name": "a", "node": "n", "wcet": 2}], "whStatistic": {"type": "synthetic"}}`,
		"duplicate edge":   `{"mode": "weakly-hard", "diameter": 3, "tasks": [{"name": "a", "node": "n0", "wcet": 1}, {"name": "b", "node": "n1", "wcet": 2}], "edges": [{"from": "a", "to": "b", "width": 4}, {"from": "a", "to": "b", "width": 8}], "whStatistic": {"type": "synthetic"}}`,
		"invalid deadline": pipelineSpec(3),
	} {
		query := ""
		if name == "invalid deadline" {
			query = "?deadline=yesterday"
		}
		if r := postSolve(t, s, body, query); r.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, r.Code)
		}
	}
}

func TestUnsolvableSpecIs422(t *testing.T) {
	s := New(Config{})
	// Probability-1 over a lossy bus is structurally unsatisfiable.
	unsat := `{
  "mode": "soft", "diameter": 3,
  "tasks": [
    {"name": "a", "node": "n0", "wcet": 100},
    {"name": "b", "node": "n1", "wcet": 100}
  ],
  "edges": [{"from": "a", "to": "b", "width": 4}],
  "softStatistic": {"type": "bernoulli", "perTX": 0.9},
  "softConstraints": {"b": 1.0}
}`
	r := postSolve(t, s, unsat, "")
	if r.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unsat spec: status %d, want 422; body %s", r.Code, r.Body)
	}
	if s.metrics.solveErrors.Load() != 1 {
		t.Errorf("solveErrors = %d, want 1", s.metrics.solveErrors.Load())
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	s.SetDraining()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	if r := postSolve(t, s, pipelineSpec(3), ""); r.Code != http.StatusOK {
		t.Fatalf("solve: %d", r.Code)
	}
	postSolve(t, s, pipelineSpec(3), "")

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"netdag_cache_hits_total 1",
		"netdag_cache_misses_total 1",
		"netdag_solves_coalesced_total 0",
		"netdag_cache_entries 1",
		"netdag_solve_seconds_count 1",
		"netdag_solve_seconds_bucket{le=\"+Inf\"} 1",
		"netdag_solver_nodes_total",
		"netdag_explored_assignments_total",
		"netdag_queue_depth 0",
		"netdag_inflight_solves 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// waitFor polls cond for up to ~5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
