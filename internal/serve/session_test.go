package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/session"
)

// blockingSolve parks every solve until block closes (or the solve's
// context expires), for saturating the admission queue.
func blockingSolve(block chan struct{}) func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
	return func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, core.ErrCanceled
	}
}

func sessionBody(diameter int) string {
	return fmt.Sprintf(`{"spec": %s, "safeDiameters": [%d, %d]}`,
		pipelineSpec(diameter), diameter, diameter+2)
}

func doJSON(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func createSession(t *testing.T, s *Server) string {
	t.Helper()
	rec := doJSON(t, s, http.MethodPost, "/v1/session", sessionBody(3))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create session: status %d, body %s", rec.Code, rec.Body)
	}
	var created sessionCreated
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Status.State != session.StateActive || !created.Status.Optimal {
		t.Fatalf("created = %+v", created)
	}
	return created.ID
}

func TestSessionEndpoints(t *testing.T) {
	s := New(Config{})
	id := createSession(t, s)

	// Status.
	rec := doJSON(t, s, http.MethodGet, "/v1/session/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), "warm") {
		t.Errorf("status reports warm starts: %s", rec.Body)
	}
	var view session.StatusView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Seq != 1 || view.Tasks != 3 {
		t.Errorf("status view = %+v", view)
	}

	// Apply a diameter event; the answer is the journal entry.
	rec = doJSON(t, s, http.MethodPost, "/v1/session/"+id+"/events", `{"kind": "diameter", "diameter": 4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("event: %d %s", rec.Code, rec.Body)
	}
	var entry session.Entry
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Outcome != session.OutcomeApplied || entry.Seq != 2 {
		t.Errorf("event entry = %+v", entry)
	}

	// A rejected event is still HTTP 200 — the rejection IS the result.
	rec = doJSON(t, s, http.MethodPost, "/v1/session/"+id+"/events", `{"kind": "placement", "task": "ghost", "node": "n0"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("rejected event: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Outcome != session.OutcomeRejected {
		t.Errorf("rejected entry = %+v", entry)
	}

	// A malformed body is a 400, not a journaled rejection.
	rec = doJSON(t, s, http.MethodPost, "/v1/session/"+id+"/events", `{"kind": "diameter", "bogus": 1}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed event: %d", rec.Code)
	}

	// Journal with since.
	rec = doJSON(t, s, http.MethodGet, "/v1/session/"+id+"/journal?since=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("journal: %d", rec.Code)
	}
	var entries []session.Entry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Seq != 2 || entries[1].Seq != 3 {
		t.Errorf("journal since=1 = %+v", entries)
	}

	// Metrics carry the session aggregates.
	rec = doJSON(t, s, http.MethodGet, "/metrics", "")
	if strings.Contains(rec.Body.String(), "warm") {
		t.Error("metrics report warm starts")
	}
	for _, want := range []string{
		"netdag_sessions 1",
		"netdag_session_events_total 2",
		"netdag_session_applied_total 1",
		"netdag_session_rejected_total 1",
		"netdag_session_resolve_seconds_count",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Delete answers the final counters and frees the slot; the counters
	// survive into the scrape aggregates.
	rec = doJSON(t, s, http.MethodDelete, "/v1/session/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	var final session.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &final); err != nil {
		t.Fatal(err)
	}
	if final.Events != 2 {
		t.Errorf("final stats = %+v", final)
	}
	rec = doJSON(t, s, http.MethodGet, "/v1/session/"+id, "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("status after delete: %d", rec.Code)
	}
	rec = doJSON(t, s, http.MethodGet, "/metrics", "")
	if !strings.Contains(rec.Body.String(), "netdag_sessions 0") ||
		!strings.Contains(rec.Body.String(), "netdag_session_events_total 2") {
		t.Error("closed-session counters fell out of the metrics aggregate")
	}
}

func TestSessionLimit(t *testing.T) {
	s := New(Config{MaxSessions: 1, RetrySeed: 0})
	createSession(t, s)
	rec := doJSON(t, s, http.MethodPost, "/v1/session", sessionBody(3))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: %d", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
}

func TestSessionFeedStreams(t *testing.T) {
	s := New(Config{})
	id := createSession(t, s)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/session/" + id + "/feed?since=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan session.Entry, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		if sc.Scan() {
			var e session.Entry
			if json.Unmarshal(sc.Bytes(), &e) == nil {
				done <- e
			}
		}
		close(done)
	}()

	time.Sleep(50 * time.Millisecond) // let the feed subscribe
	rec := doJSON(t, s, http.MethodPost, "/v1/session/"+id+"/events", `{"kind": "link-quality", "minNTX": 2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("event: %d %s", rec.Code, rec.Body)
	}
	select {
	case e, ok := <-done:
		if !ok || e.Seq != 2 || e.Event.Kind != session.KindLink {
			t.Fatalf("feed entry = %+v (ok=%v)", e, ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("feed never delivered the entry")
	}
}

// TestSessionConfigFromServer pins how the server's knobs reach each
// session: RetrySeed, the only jitter seed netdag-serve exposes, must
// seed the session's re-solve retry jitter too.
func TestSessionConfigFromServer(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		safe []int
		want session.Config
	}{
		{"zero", Config{}, nil, session.Config{}},
		{"retry-seed", Config{RetrySeed: 7}, nil, session.Config{BackoffSeed: 7}},
		{"all", Config{
			SolveWorkers: 3, SessionDeadline: 2 * time.Second, SessionAttempts: 5, RetrySeed: 11,
		}, []int{3, 5}, session.Config{
			Workers: 3, ResolveDeadline: 2 * time.Second, MaxAttempts: 5, BackoffSeed: 11,
			SafeDiameters: []int{3, 5},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := New(c.cfg).sessionConfig(c.safe)
			if got.ObserveResolve == nil {
				t.Error("session re-solves are not observed by the serve metrics")
			}
			got.ObserveResolve = nil
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("session config = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestRetryAfterBackoff pins the jittered exponential Retry-After
// contract: consecutive 429 hints follow the policy envelope
// (deterministically with no jitter seed, within [env/2, env] with one)
// and a successful admission resets the sequence.
func TestRetryAfterBackoff(t *testing.T) {
	s := New(Config{})
	want := []int{1, 2, 4, 8, 16, 30, 30}
	for i, w := range want {
		if got := s.retryAfterHint(); got != w {
			t.Errorf("hint %d = %d, want %d", i, got, w)
		}
	}
	s.admitted()
	if got := s.retryAfterHint(); got != 1 {
		t.Errorf("hint after reset = %d, want 1", got)
	}

	j := New(Config{RetrySeed: 7})
	for i := 0; i < 10; i++ {
		got := j.retryAfterHint()
		env := j.cfg.RetryPolicy.Delay(i, nil).Seconds()
		if float64(got) < env/2-1 || float64(got) > env+1 {
			t.Errorf("jittered hint %d = %d outside [%g, %g]", i, got, env/2, env)
		}
	}
}

// TestRetryAfterOn429 checks the wired path: a saturated queue answers
// 429 with a growing hint.
func TestRetryAfterOn429(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, SolveFn: blockingSolve(block)})
	defer close(block)

	go postSolve(t, s, pipelineSpec(3), "") // occupies the worker
	waitFor(t, func() bool { return s.metrics.inflight.Load() == 1 })
	go postSolve(t, s, pipelineSpec(4), "") // occupies the queue slot
	waitFor(t, func() bool { return s.metrics.queued.Load() == 1 })

	var hints []int
	for i := 0; i < 3; i++ {
		rec := postSolve(t, s, pipelineSpec(5+i), "")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, rec.Code)
		}
		n, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		hints = append(hints, n)
	}
	if !(hints[0] == 1 && hints[1] == 2 && hints[2] == 4) {
		t.Errorf("429 hints = %v, want [1 2 4]", hints)
	}
}
