// Package serve is the NETDAG scheduling service: a net/http JSON API
// that accepts problem specs (spec.File) on POST /v1/solve and answers
// with solved schedules (spec.ScheduleOut).
//
// The batch CLIs re-solve from scratch on every invocation; a serving
// layer exploits the workload's read-heavy shape instead. Three
// mechanisms make it production-shaped rather than a thin HTTP wrapper:
//
//   - a content-addressed LRU solution cache keyed by spec.Fingerprint,
//     so repeated identical problems are one map lookup, and
//     singleflight-style coalescing so concurrent identical requests
//     share one solve;
//   - admission control: a global worker budget with a bounded wait
//     queue, answering 429 + Retry-After when saturated instead of
//     letting solves pile up;
//   - real deadlines: each request's deadline is plumbed as a context
//     into core.SolveContext, which interrupts the search at its prune
//     points and hands back the incumbent (served with optimal=false)
//     or nothing (504).
//
// Observability: GET /healthz (503 while draining), GET /metrics in
// Prometheus text format, and structured JSON access logs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netdag/netdag/internal/backoff"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/journal"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
)

// Config tunes a Server. The zero value is usable: every knob has a
// default applied by New.
type Config struct {
	// CacheEntries bounds the solution cache (default 256).
	CacheEntries int
	// MaxConcurrent is the global solve budget: how many solves may run
	// at once across all requests (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds how many solves may wait for a worker slot
	// before new work is rejected with 429 (default 64).
	QueueDepth int
	// SolveWorkers is Problem.Workers for each solve (default 0 =
	// GOMAXPROCS inside the solver).
	SolveWorkers int
	// DefaultDeadline applies to requests that name no deadline; zero
	// means solve without a deadline.
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadline; zero means uncapped.
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Logger receives structured access and lifecycle logs (default: a
	// JSON logger is NOT installed; logs are discarded).
	Logger *slog.Logger
	// MaxSessions bounds concurrently live scheduler sessions
	// (default 8); creation beyond it answers 429.
	MaxSessions int
	// SessionDeadline bounds each session re-solve attempt (0 = none:
	// deterministic single-attempt re-solves).
	SessionDeadline time.Duration
	// SessionAttempts bounds deadline-expired re-solve retries per
	// session event (0 = the session default).
	SessionAttempts int
	// RetryPolicy shapes the jittered exponential Retry-After hint on
	// 429 responses: consecutive rejections push the hint out, a
	// successful admission resets it. The zero value selects
	// {Base: 1s, Max: 30s}.
	RetryPolicy backoff.Policy
	// RetrySeed seeds the Retry-After jitter and every session's
	// re-solve retry jitter (0 = no jitter: hints and retry delays are
	// the deterministic envelope).
	RetrySeed int64
	// MaxBatchItems bounds the specs accepted by one /v1/solve-batch
	// request (default 256).
	MaxBatchItems int
	// MaxBatchBytes bounds batch request bodies (default 16 MiB —
	// batch envelopes legitimately exceed MaxBodyBytes).
	MaxBatchBytes int64
	// BaseContext is the server's lifetime: canceling it drains the
	// server — running solves are interrupted, /healthz turns 503
	// (default context.Background()).
	BaseContext context.Context
	// SolveFn replaces core.SolveContext, for tests that need a
	// deterministic or instrumented solver.
	SolveFn func(ctx context.Context, p *core.Problem) (*core.Schedule, error)
}

// Server is the scheduling service. Create with New; it implements
// http.Handler.
type Server struct {
	cfg      Config
	log      *slog.Logger
	baseCtx  context.Context
	cache    *lruCache
	sem      chan struct{} // worker budget; acquired per solve
	flights  flightGroup
	metrics  metrics
	draining atomic.Bool
	solve    func(ctx context.Context, p *core.Problem) (*core.Schedule, error)
	mux      *http.ServeMux

	// journal is non-nil after AttachJournal: wired at startup, before
	// traffic, and read-only afterwards.
	journal *journal.Journal

	sessions sessionRegistry

	// Retry-After backoff state: consecutive 429s (any endpoint) widen
	// the hint; a successful admission resets it.
	retryMu  sync.Mutex
	retryRng *rand.Rand // nil = deterministic envelope
	rejected int        // consecutive 429s
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 8
	}
	if cfg.RetryPolicy.Base <= 0 {
		cfg.RetryPolicy.Base = time.Second
	}
	if cfg.RetryPolicy.Max <= 0 {
		cfg.RetryPolicy.Max = 30 * time.Second
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 16 << 20
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		baseCtx: cfg.BaseContext,
		cache:   newLRUCache(cfg.CacheEntries),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		solve:   cfg.SolveFn,
	}
	if s.solve == nil {
		s.solve = core.SolveContext
	}
	if cfg.RetrySeed != 0 {
		s.retryRng = rand.New(rand.NewSource(cfg.RetrySeed))
	}
	s.sessions.m = make(map[string]*session.Session)
	s.flights.m = make(map[string]*flight)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve-batch", s.handleSolveBatch)
	s.mux.HandleFunc("POST /v1/certify", s.handleCertify)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("POST /v1/session/{id}/events", s.handleSessionEvent)
	s.mux.HandleFunc("GET /v1/session/{id}/journal", s.handleSessionJournal)
	s.mux.HandleFunc("GET /v1/session/{id}/feed", s.handleSessionFeed)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the API and emits one structured access-log
// line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	s.log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"bytes", rec.bytes,
		"durMS", time.Since(start).Milliseconds(),
		"cache", rec.Header().Get(cacheHeader),
		"remote", r.RemoteAddr,
	)
}

// statusRecorder captures the response status and size for access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so streaming handlers (the
// session event feed) can push entries through the access-log wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Response headers describing how the request was served.
const (
	cacheHeader      = "X-Netdag-Cache"      // hit | miss | coalesced
	incompleteHeader = "X-Netdag-Incomplete" // "deadline": body is a non-optimal incumbent
	fingerprintHdr   = "X-Netdag-Spec"       // the spec's canonical fingerprint
)

// solveResult is the outcome of one flight, relayed to the leader and
// every coalesced follower. A zero status means "nothing to write"
// (the waiting client disconnected).
type solveResult struct {
	status     int    // HTTP status to relay
	body       []byte // JSON payload (ScheduleOut or {"error": ...})
	incomplete bool   // 200 carrying a deadline-interrupted incumbent
}

// flight is one in-progress solve that concurrent identical requests
// wait on instead of solving again.
type flight struct {
	done chan struct{}
	res  solveResult
}

// flightGroup is a minimal singleflight: at most one flight per
// fingerprint is in progress at a time.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the in-progress flight for key, or registers a new one
// (leader = true) that the caller must finish.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// finish publishes the result and wakes every follower.
func (g *flightGroup) finish(key string, fl *flight, res solveResult) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	fl.res = res
	close(fl.done)
}

// handleSolve is POST /v1/solve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	var f spec.File
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid spec: %v", err))
		return
	}
	key, err := spec.Fingerprint(&f)
	if err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set(fingerprintHdr, key)

	deadline, err := s.requestDeadline(r)
	if err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	res, cacheState := s.solveOne(r.Context(), &f, key, start, deadline)
	if res.status == 0 {
		return // client gone while waiting; nothing to write
	}
	s.relay(w, res, cacheState)
}

// solveOne serves one fingerprinted spec through the full read path —
// cache, coalescing, admission, solve — and is shared by /v1/solve and
// every /v1/solve-batch item. waitCtx bounds how long a coalesced
// follower may wait: the originating request's context.
func (s *Server) solveOne(waitCtx context.Context, f *spec.File, key string, start time.Time, deadline time.Duration) (solveResult, string) {
	// Hot path: an identical problem was already solved here.
	if body, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		return solveResult{status: http.StatusOK, body: body}, "hit"
	}

	fl, leader := s.flights.join(key)
	if !leader {
		// Coalesce: wait for the identical in-flight solve, bounded by
		// this request's own deadline budget.
		s.metrics.coalesced.Add(1)
		return s.awaitFlight(waitCtx, fl, start, deadline), "coalesced"
	}
	s.metrics.cacheMisses.Add(1)
	res := s.runFlight(f, key, start, deadline)
	s.flights.finish(key, fl, res)
	return res, "miss"
}

// awaitFlight returns an in-flight solve's result to a follower, giving
// up at the follower's own deadline. A zero-status result means the
// follower's client disconnected first.
func (s *Server) awaitFlight(waitCtx context.Context, fl *flight, start time.Time, deadline time.Duration) solveResult {
	var expired <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline - time.Since(start))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-fl.done:
		return fl.res
	case <-expired:
		s.metrics.deadlineExpired.Add(1)
		return errorResult(http.StatusGatewayTimeout, "deadline expired waiting for the coalesced solve")
	case <-waitCtx.Done():
		return solveResult{} // client gone; nothing to write
	}
}

// runFlight validates, queues, and solves one problem, producing the
// result every requester of this fingerprint receives.
func (s *Server) runFlight(f *spec.File, key string, start time.Time, deadline time.Duration) solveResult {
	p, err := spec.Build(f)
	if err != nil {
		s.metrics.badRequests.Add(1)
		return errorResult(http.StatusBadRequest, err.Error())
	}
	if s.cfg.SolveWorkers > 0 {
		p.Workers = s.cfg.SolveWorkers
	}

	// The solve's context: the server's lifetime (drain interrupts all
	// solves) plus the leader's deadline budget. Deliberately NOT the
	// request context — if the leader disconnects, coalesced followers
	// still want the result.
	ctx := s.baseCtx
	cancel := func() {}
	if deadline > 0 {
		ctx, cancel = context.WithDeadline(s.baseCtx, start.Add(deadline))
	}
	defer cancel()

	// Admission: take a worker slot, or queue for one within bounds.
	if res, ok := s.admit(ctx); !ok {
		return res
	}
	defer func() { <-s.sem }()

	s.metrics.inflight.Add(1)
	solveStart := time.Now()
	var sched *core.Schedule
	var front []core.ParetoPoint
	if p.Objective == core.ObjectivePareto {
		// "pareto" asks for the full energy/latency front: an
		// epsilon-constraint sweep of objective-scalarized solves rather
		// than one solve, so the SolveFn instrumentation hook does not
		// apply. A deadline-truncated sweep serves its partial front (the
		// energy-minimal prefix) as an incomplete, never-cached body.
		front, err = core.ParetoFrontContext(ctx, p)
		if len(front) > 0 {
			sched = front[0].Sched
		}
	} else {
		sched, err = s.solve(ctx, p)
	}
	s.metrics.inflight.Add(-1)
	s.metrics.observeSolve(time.Since(solveStart))

	canceled := errors.Is(err, core.ErrCanceled)
	switch {
	case err == nil, canceled && sched != nil:
		var out *spec.ScheduleOut
		var xerr error
		if front != nil {
			out, xerr = spec.ExportFront(p, front)
		} else {
			out, xerr = spec.Export(p, sched)
		}
		if xerr != nil {
			return errorResult(http.StatusInternalServerError, xerr.Error())
		}
		body, merr := json.Marshal(out)
		if merr != nil {
			return errorResult(http.StatusInternalServerError, merr.Error())
		}
		s.metrics.exploredAssignments.Add(int64(sched.Explored))
		s.metrics.solverNodes.Add(int64(sched.SolverNodes))
		if canceled {
			// A deadline-interrupted incumbent is feasible but not
			// proven optimal: serve it, never cache it.
			s.metrics.incomplete.Add(1)
			return solveResult{status: http.StatusOK, body: body, incomplete: true}
		}
		s.cache.put(key, body)
		s.journalAppend(journal.Record{Key: key, Body: body})
		return solveResult{status: http.StatusOK, body: body}
	case canceled:
		s.metrics.deadlineExpired.Add(1)
		return errorResult(http.StatusGatewayTimeout, "deadline expired before any schedule was found")
	default:
		s.metrics.solveErrors.Add(1)
		return errorResult(http.StatusUnprocessableEntity, err.Error())
	}
}

// requestDeadline resolves the effective deadline budget for a request
// from its ?deadline=<duration> query parameter, the server default, and
// the server cap.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	d := s.cfg.DefaultDeadline
	if raw := r.URL.Query().Get("deadline"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil {
			return 0, fmt.Errorf("invalid deadline %q: %v", raw, err)
		}
		if parsed <= 0 {
			return 0, fmt.Errorf("deadline %q must be positive", raw)
		}
		d = parsed
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// SetDraining marks the server as draining: /healthz answers 503 so
// load balancers stop routing here, while in-flight solves continue
// until the base context is canceled.
func (s *Server) SetDraining() {
	s.draining.Store(true)
}

// handleHealthz is GET /healthz: 200 while serving, 503 once draining
// begins (SetDraining) or the base context is canceled.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.baseCtx.Err() != nil {
		writeJSON(w, http.StatusServiceUnavailable, []byte(`{"status":"draining"}`), "")
		return
	}
	writeJSON(w, http.StatusOK, []byte(`{"status":"ok"}`), "")
}

// handleMetrics is GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w, s.cache.len(), s.sessionAggregate())
}

// relay writes a flight's outcome, attaching admission hints and
// provenance headers.
func (s *Server) relay(w http.ResponseWriter, res solveResult, cache string) {
	if res.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
	}
	if res.incomplete {
		w.Header().Set(incompleteHeader, "deadline")
	}
	writeJSON(w, res.status, res.body, cache)
}

// retryAfterHint is the Retry-After value on 429s: a jittered
// exponential backoff over consecutive rejections (internal/backoff,
// the same policy shape the session re-solve retry loop uses), so that
// under sustained overload, retrying clients spread out instead of
// stampeding back in lockstep every fixed second. A successful
// admission (admitted) resets the sequence.
func (s *Server) retryAfterHint() int {
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	h := s.cfg.RetryPolicy.HintSeconds(s.rejected, s.retryRng)
	s.rejected++
	return h
}

// admitted resets the Retry-After backoff: capacity exists again.
func (s *Server) admitted() {
	s.retryMu.Lock()
	s.rejected = 0
	s.retryMu.Unlock()
}

func errorResult(status int, msg string) solveResult {
	return solveResult{status: status, body: errorBody(msg)}
}

func errorBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return b
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody(msg), "")
}

func writeJSON(w http.ResponseWriter, status int, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	if cache != "" {
		w.Header().Set(cacheHeader, cache)
	}
	w.WriteHeader(status)
	w.Write(body)
}
