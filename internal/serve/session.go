package serve

// The online session API: long-lived scheduler sessions (internal/session)
// exposed over HTTP. A session is created from a spec, fed a stream of
// delta events, and observed through its status, its replayable event
// journal, and a streaming feed:
//
//	POST   /v1/session             {"spec": {...}, "safeDiameters": [...]}
//	GET    /v1/session/{id}        status snapshot
//	POST   /v1/session/{id}/events one session.Event; answers the journal entry
//	GET    /v1/session/{id}/journal?since=N
//	GET    /v1/session/{id}/feed?since=N   long-poll JSONL stream
//	DELETE /v1/session/{id}        close; answers the final counters
//
// Event solves run under the server's admission control — a session
// re-solve takes a worker slot like any POST /v1/solve — and re-solve
// latencies land in the netdag_session_resolve_seconds histogram.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
)

// sessionRegistry tracks the server's live sessions and accumulates the
// counters of closed ones, so scrape-time aggregates never go backwards.
type sessionRegistry struct {
	mu           sync.Mutex
	m            map[string]*session.Session
	nextID       int64
	closedTotals session.Stats
}

// sessionAgg is the scrape-time view: live session count plus counters
// summed over live and closed sessions.
type sessionAgg struct {
	live  int64
	stats session.Stats
}

func addStats(a *session.Stats, b session.Stats) {
	a.Events += b.Events
	a.Applied += b.Applied
	a.Rejected += b.Rejected
	a.RejectedSwaps += b.RejectedSwaps
	a.Fallbacks += b.Fallbacks
	a.ModeSwitches += b.ModeSwitches
	a.Recoveries += b.Recoveries
	a.Resolves += b.Resolves
}

func (s *Server) sessionAggregate() sessionAgg {
	s.sessions.mu.Lock()
	defer s.sessions.mu.Unlock()
	agg := sessionAgg{live: int64(len(s.sessions.m)), stats: s.sessions.closedTotals}
	for _, sess := range s.sessions.m {
		addStats(&agg.stats, sess.Stats())
	}
	return agg
}

// sessionRequest is the POST /v1/session body.
type sessionRequest struct {
	Spec spec.File `json:"spec"`
	// SafeDiameters configures the degraded-mode table (default: the
	// spec's diameter only).
	SafeDiameters []int `json:"safeDiameters,omitempty"`
}

// sessionCreated is the POST /v1/session response.
type sessionCreated struct {
	ID     string             `json:"id"`
	Status session.StatusView `json:"status"`
}

// sessionConfig maps the server's knobs onto a new session's: the
// solve worker count, the re-solve deadline and attempt budget, and
// RetrySeed as the re-solve retry jitter seed.
func (s *Server) sessionConfig(safeDiameters []int) session.Config {
	return session.Config{
		Workers:         s.cfg.SolveWorkers,
		ResolveDeadline: s.cfg.SessionDeadline,
		MaxAttempts:     s.cfg.SessionAttempts,
		BackoffSeed:     s.cfg.RetrySeed,
		SafeDiameters:   safeDiameters,
		ObserveResolve:  s.metrics.observeSessionResolve,
	}
}

// handleSessionCreate is POST /v1/session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid session request: %v", err))
		return
	}

	s.sessions.mu.Lock()
	if len(s.sessions.m) >= s.cfg.MaxSessions {
		s.sessions.mu.Unlock()
		s.metrics.admissionRejected.Add(1)
		s.relay(w, errorResult(http.StatusTooManyRequests,
			fmt.Sprintf("session limit (%d) reached; close one or retry later", s.cfg.MaxSessions)), "")
		return
	}
	s.sessions.mu.Unlock()

	// The initial solve and safe-table precomputation run under the same
	// worker budget as any solve.
	ctx, cancel := s.sessionSolveContext(r)
	defer cancel()
	if res, ok := s.admit(ctx); !ok {
		s.relay(w, res, "")
		return
	}
	sess, err := session.New(ctx, &req.Spec, s.sessionConfig(req.SafeDiameters))
	<-s.sem
	if err != nil {
		s.metrics.solveErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}

	s.sessions.mu.Lock()
	s.sessions.nextID++
	id := fmt.Sprintf("s%d", s.sessions.nextID)
	s.sessions.m[id] = sess
	s.sessions.mu.Unlock()
	s.log.Info("session created", "session", id, "tasks", sess.Status().Tasks)

	body, _ := json.Marshal(sessionCreated{ID: id, Status: sess.Status()})
	writeJSON(w, http.StatusCreated, body, "")
}

// lookupSession resolves {id}, answering 404 itself when absent.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*session.Session, string, bool) {
	id := r.PathValue("id")
	s.sessions.mu.Lock()
	sess, ok := s.sessions.m[id]
	s.sessions.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return nil, id, false
	}
	return sess, id, true
}

// handleSessionStatus is GET /v1/session/{id}.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, _, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	body, _ := json.Marshal(sess.Status())
	writeJSON(w, http.StatusOK, body, "")
}

// handleSessionEvent is POST /v1/session/{id}/events: apply one delta.
// The response is the event's journal entry — a rejected event is still
// a 200 (the rejection is the session working as designed); only a
// closed session (410) or an expired solve budget (504) are errors.
func (s *Server) handleSessionEvent(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var ev session.Event
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		s.metrics.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid event: %v", err))
		return
	}

	ctx, cancel := s.sessionSolveContext(r)
	defer cancel()
	if res, ok := s.admit(ctx); !ok {
		s.relay(w, res, "")
		return
	}
	entry, err := sess.Apply(ctx, ev)
	<-s.sem
	switch {
	case errors.Is(err, session.ErrClosed):
		writeError(w, http.StatusGone, fmt.Sprintf("session %q is closed", id))
		return
	case err != nil:
		s.metrics.deadlineExpired.Add(1)
		writeError(w, http.StatusGatewayTimeout,
			fmt.Sprintf("solve budget expired; event not journaled, re-apply: %v", err))
		return
	}
	body, _ := json.Marshal(entry)
	writeJSON(w, http.StatusOK, body, "")
}

// handleSessionJournal is GET /v1/session/{id}/journal?since=N.
func (s *Server) handleSessionJournal(w http.ResponseWriter, r *http.Request) {
	sess, _, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	entries := sess.Journal(since)
	if entries == nil {
		entries = []session.Entry{}
	}
	body, _ := json.Marshal(entries)
	writeJSON(w, http.StatusOK, body, "")
}

// handleSessionFeed is GET /v1/session/{id}/feed?since=N: a streaming
// JSONL event feed. Each journal entry is written (and flushed) as one
// line as it lands; the stream ends when the session closes, the client
// disconnects, or the server drains.
func (s *Server) handleSessionFeed(w http.ResponseWriter, r *http.Request) {
	sess, _, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the header out before blocking: the client's request does
		// not complete until it sees the status line.
		flusher.Flush()
	}

	ctx, cancel := contextJoin(s.baseCtx, r.Context())
	defer cancel()
	for {
		entries, err := sess.Wait(ctx, since)
		if err != nil {
			return // closed session or gone client: the stream just ends
		}
		for _, e := range entries {
			b, merr := json.Marshal(e)
			if merr != nil {
				return
			}
			if _, werr := w.Write(append(b, '\n')); werr != nil {
				return
			}
			since = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSessionDelete is DELETE /v1/session/{id}: close the session and
// answer its final counters.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess, id, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	final := sess.Close()
	s.sessions.mu.Lock()
	delete(s.sessions.m, id)
	addStats(&s.sessions.closedTotals, final)
	s.sessions.mu.Unlock()
	s.log.Info("session closed", "session", id, "events", final.Events)
	body, _ := json.Marshal(final)
	writeJSON(w, http.StatusOK, body, "")
}

// sessionSolveContext is the context session work runs under: the
// server's lifetime (drain interrupts re-solves) bounded by the request's
// deadline budget. Like runFlight, deliberately not the request context —
// an Apply's outcome is journaled state, not just this response.
func (s *Server) sessionSolveContext(r *http.Request) (ctx context.Context, cancel func()) {
	d, err := s.requestDeadline(r)
	if err != nil || d == 0 {
		return s.baseCtx, func() {}
	}
	return context.WithTimeout(s.baseCtx, d)
}

// contextJoin derives a context canceled when either parent is.
func contextJoin(a, b context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

func sinceParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid since %q: a non-negative integer is required", raw)
	}
	return n, nil
}

// CloseSessions closes every live session (server shutdown).
func (s *Server) CloseSessions() {
	s.sessions.mu.Lock()
	defer s.sessions.mu.Unlock()
	for id, sess := range s.sessions.m {
		addStats(&s.sessions.closedTotals, sess.Close())
		delete(s.sessions.m, id)
	}
}
