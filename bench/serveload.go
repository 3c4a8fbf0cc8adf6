package bench

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/serve"
	"github.com/netdag/netdag/internal/spec"
)

// The serve workload's request mix: hotShare percent of requests draw a
// hot variant by Zipf(hotZipfS) over hotSet weight-mutated pipe8 twins,
// all cached during set-up; the rest are fresh twins never sent before —
// guaranteed misses that the structural warm-start index applies to. The
// mix is an assumption, not fitted to measured traffic (README.md); the
// miss share sets the p99 tail, which falls among the misses.
const (
	hotSet   = 64
	hotShare = 95
	hotZipfS = 1.1
	// maxConns is the client's goroutine and keep-alive connection count
	// (further capped at the CPU count, so load comes from at most nproc
	// clients).
	maxConns = 2
)

// serveWorkload drives netdag-serve. Untraced, it starts the real binary
// with default flags on a loopback port and sends closed-loop POST
// /v1/solve requests over keep-alive connections, so the latency a client
// sees includes HTTP, decode, fingerprint, cache, admission and solve.
// Traced, it replays the same request sequence in process through
// serve.New and httptest (handler time alone, spans around the solver),
// and then runs a loopback segment for the transport and cache metrics.
//
// The loop is closed, not open: on the reference VM time.Sleep
// oversleeps by ~1 ms for sleeps of 200 µs and less, so an open-loop
// pacer would measure its own timer rather than the server.
type serveWorkload struct {
	o         Options
	inProcess bool
	conns     int
	exp       *expected

	hot      [][]byte
	hotFiles []*spec.File
	hotSeen  map[string]bool
	fresh    atomic.Int64

	// The real server (loopback) and its warm-up responses.
	cmd     *exec.Cmd
	exited  chan struct{}
	base    string
	client  *http.Client
	hotLoop [][]byte
	prom0   map[string]float64
	marked  bool

	// The in-process server (traced runs) and its warm-up responses.
	srv     *serve.Server
	hotProc [][]byte
	// The replay runs on one goroutine; the solve hook attaches its span
	// and accounting to the current operation.
	cur struct {
		r    *recorder
		op   int64
		span int
	}

	lastD  time.Duration
	slices int64 // slices run so far; seeds each slice's request streams
	// explored and nodes sum the in-process warm-up's solves: the hot set
	// in order on a fresh server, a fixed set of solves whatever the
	// timing of the run.
	explored, nodes int64
}

func newServe(o Options) *serveWorkload {
	conns := maxConns
	if n := runtime.NumCPU(); n < conns {
		conns = n
	}
	return &serveWorkload{o: o, inProcess: o.Trace, conns: conns}
}

func (w *serveWorkload) setupReps() int   { return 2 }
func (w *serveWorkload) concurrent() bool { return !w.inProcess }

func (w *serveWorkload) proc() string {
	if w.inProcess || w.cmd == nil {
		return "self"
	}
	return strconv.Itoa(w.cmd.Process.Pid)
}

// variants builds the hot set from the seed.
func (w *serveWorkload) variants() {
	base := pipe8()
	rng := rand.New(rand.NewSource(w.o.Seed))
	w.hot, w.hotFiles = nil, nil
	w.hotSeen = map[string]bool{}
	for len(w.hot) < hotSet {
		f := mutateWeights(base, rng)
		b := marshalSpec(f)
		if w.hotSeen[string(b)] {
			continue
		}
		w.hotSeen[string(b)] = true
		w.hot = append(w.hot, b)
		w.hotFiles = append(w.hotFiles, f)
	}
}

// freshVariant returns fresh request k: a pipe8 twin drawn from its own
// seeded stream, never equal to a hot variant.
func (w *serveWorkload) freshVariant(k int64) (*spec.File, []byte) {
	base := pipe8()
	for j := int64(0); ; j++ {
		rng := rand.New(rand.NewSource(w.o.Seed*1_000_003 + 500_000 + k*1_000 + j))
		f := mutateWeights(base, rng)
		if b := marshalSpec(f); !w.hotSeen[string(b)] {
			return f, b
		}
	}
}

func (w *serveWorkload) setup(ctx context.Context) error {
	exp, err := loadExpected(w.o.Root, "serve")
	if err != nil {
		return err
	}
	w.exp = exp
	w.variants()
	w.fresh.Store(0)
	if err := w.startServer(ctx); err != nil {
		return err
	}
	w.hotLoop = make([][]byte, len(w.hot))
	for i, body := range w.hot {
		status, _, resp, _, err := w.post(ctx, body)
		if err != nil {
			return fmt.Errorf("warm hot-%02d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm hot-%02d: status %d: %s", i, status, resp)
		}
		w.hotLoop[i] = resp
	}
	if w.inProcess {
		w.srv = serve.New(serve.Config{SolveFn: w.solveHook})
		w.explored, w.nodes = 0, 0
		w.hotProc = make([][]byte, len(w.hot))
		for i, body := range w.hot {
			rec := w.handle(body)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process warm hot-%02d: status %d", i, rec.Code)
			}
			w.hotProc[i] = rec.Body.Bytes()
		}
	}
	return nil
}

// startServer runs netdag-serve on a free loopback port, its logs
// discarded, and waits for /healthz.
func (w *serveWorkload) startServer(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	w.cmd = exec.Command(w.o.ServeBin, "-addr", addr)
	if err := w.cmd.Start(); err != nil {
		w.cmd = nil
		return fmt.Errorf("start netdag-serve: %w", err)
	}
	w.exited = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		cmd.Wait()
		close(done)
	}(w.cmd, w.exited)
	w.base = "http://" + addr
	w.client = &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: w.conns, MaxConnsPerHost: w.conns, DisableCompression: true,
		},
		Timeout: time.Minute,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-w.exited:
			return errors.New("netdag-serve exited during start-up")
		default:
		}
		if resp, err := w.client.Get(w.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("netdag-serve never became healthy")
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the server (SIGTERM, its graceful drain) and waits for it
// to exit.
func (w *serveWorkload) close() {
	w.srv = nil
	if w.cmd == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(20 * time.Second):
		w.cmd.Process.Kill()
		<-w.exited
	}
	w.cmd = nil
	w.marked = false
}

// post sends one solve request over loopback.
func (w *serveWorkload) post(ctx context.Context, body []byte) (status int, cache string, resp []byte, lat time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	res, err := w.client.Do(req)
	if err != nil {
		return 0, "", nil, time.Since(t0), err
	}
	resp, err = io.ReadAll(res.Body)
	res.Body.Close()
	lat = time.Since(t0)
	return res.StatusCode, res.Header.Get("X-Netdag-Cache"), resp, lat, err
}

// handle serves one request through the in-process server.
func (w *serveWorkload) handle(body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, req)
	return rec
}

// solveHook is the in-process server's SolveFn: core.SolveContext, timed
// and traced as a child of the current replayed request. Outside a
// replay — during the warm-up — it sums the work counts instead.
func (w *serveWorkload) solveHook(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
	r := w.cur.r
	if r == nil {
		sched, err := core.SolveContext(ctx, p)
		if sched != nil {
			w.explored += int64(sched.Explored)
			w.nodes += int64(sched.SolverNodes)
		}
		return sched, err
	}
	a0 := heapAllocs()
	s := r.tr.begin("core.Solve", w.cur.op, w.cur.span)
	t0 := time.Now()
	sched, err := core.SolveContext(ctx, p)
	d := time.Since(t0)
	r.tr.end(s)
	if r.tr != nil {
		r.solve(d, heapAllocs()-a0)
	}
	return sched, err
}

// verify audits the warm-up responses and checks their hashes.
func (w *serveWorkload) verify(r *recorder) {
	for _, set := range [][][]byte{w.hotLoop, w.hotProc} {
		for i, body := range set {
			if err := w.checkBody(w.hotFiles[i], body, fmt.Sprintf("hot-%02d", i)); err != nil {
				r.fail(err)
			} else {
				r.pass()
			}
		}
	}
}

// checkBody audits a response against its spec and checks its hash.
func (w *serveWorkload) checkBody(f *spec.File, body []byte, key string) error {
	p, err := spec.Build(f)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	sched, err := spec.Import(p, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: import response: %w", key, err)
	}
	if !sched.Optimal {
		return fmt.Errorf("%s: schedule not proven optimal", key)
	}
	if err := audit(p, sched); err != nil {
		return fmt.Errorf("%s: audit: %w", key, err)
	}
	h, err := bodyHash(body)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return w.exp.check(key, h, w.o.Seed)
}

// checkResponse judges one measured response. A hot variant answered
// from the cache must be byte-identical to its warm-up response; any
// other answer is audited in full.
func (w *serveWorkload) checkResponse(hot int, freshF *spec.File, fresh int64, status int, cache string, body, warm []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if hot >= 0 {
		if cache == "hit" {
			if !bytes.Equal(body, warm) {
				return fmt.Errorf("hot-%02d: cached body differs from its warm-up response", hot)
			}
			return nil
		}
		return w.checkBody(w.hotFiles[hot], body, fmt.Sprintf("hot-%02d", hot))
	}
	if cache != "miss" {
		return fmt.Errorf("fresh-%03d: served as %q, want a miss", fresh, cache)
	}
	return w.checkBody(freshF, body, fmt.Sprintf("fresh-%03d", fresh))
}

// requester draws one client's request sequence.
type requester struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (w *serveWorkload) requester(client int64) *requester {
	rng := rand.New(rand.NewSource(w.o.Seed*7_727 + client))
	return &requester{rng: rng, zipf: rand.NewZipf(rng, hotZipfS, 1, hotSet-1)}
}

// next returns a hot variant index, or -1 and a fresh variant.
func (q *requester) next(w *serveWorkload) (hot int, fresh int64, f *spec.File, body []byte) {
	if q.rng.Intn(100) < hotShare {
		i := int(q.zipf.Uint64())
		return i, -1, nil, w.hot[i]
	}
	k := w.fresh.Add(1) - 1
	f, body = w.freshVariant(k)
	return -1, k, f, body
}

func (w *serveWorkload) slice(ctx context.Context, d time.Duration, r *recorder) error {
	w.lastD = d
	w.slices++
	if w.inProcess {
		return w.replay(ctx, d, r)
	}
	return w.loopback(ctx, d, r)
}

// loopback runs conns closed-loop clients against the real server for d,
// adding the server's CPU time to the recorder.
func (w *serveWorkload) loopback(ctx context.Context, d time.Duration, r *recorder) error {
	if !w.marked {
		prom, err := w.scrape(ctx)
		if err != nil {
			return err
		}
		w.prom0, w.marked = prom, true
	}
	cpu0 := w.serverCPU()
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	errs := make([]error, w.conns)
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := w.requester(int64(c) + 1_000*w.slices)
			for time.Now().Before(until) {
				if err := ctx.Err(); err != nil {
					errs[c] = err
					return
				}
				hot, fresh, f, body := q.next(w)
				id := r.nextOp.Add(1)
				root := r.tr.begin("op", id, -1)
				s := r.tr.begin("http.POST", id, root)
				status, cache, resp, lat, err := w.post(ctx, body)
				r.tr.end(s)
				r.tr.end(root)
				if err == nil {
					var warm []byte
					if hot >= 0 {
						warm = w.hotLoop[hot]
					}
					err = w.checkResponse(hot, f, fresh, status, cache, resp, warm)
				}
				r.op("", lat, 0, cache, err)
			}
		}(c)
	}
	wg.Wait()
	r.endPass(w.serverCPU() - cpu0)
	return errors.Join(errs...)
}

// replay serves the request sequence through the in-process server on
// one goroutine for d, timing ServeHTTP alone.
func (w *serveWorkload) replay(ctx context.Context, d time.Duration, r *recorder) error {
	q := w.requester(1_000_000 + w.slices)
	w.cur.r = r
	defer func() { w.cur.r = nil }()
	if r.tr != nil {
		r.mu.Lock()
		r.explored, r.nodes = w.explored, w.nodes
		r.mu.Unlock()
	}
	until := time.Now().Add(d)
	for time.Now().Before(until) {
		if err := ctx.Err(); err != nil {
			return err
		}
		hot, fresh, f, body := q.next(w)
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		id := r.nextOp.Add(1)
		w.cur.op = id
		root := r.tr.begin("op", id, -1)
		s := r.tr.begin("serve.ServeHTTP", id, root)
		w.cur.span = s
		cpu0 := cpuNow()
		t0 := time.Now()
		w.srv.ServeHTTP(rec, req)
		lat := time.Since(t0)
		cpu := cpuNow() - cpu0
		r.tr.end(s)
		r.tr.end(root)
		cache := rec.Header().Get("X-Netdag-Cache")
		var warm []byte
		if hot >= 0 {
			warm = w.hotProc[hot]
		}
		err := w.checkResponse(hot, f, fresh, rec.Code, cache, rec.Body.Bytes(), warm)
		r.op("", lat, cpu, cache, err)
	}
	r.endPass(0)
	return nil
}

func (w *serveWorkload) finish(ctx context.Context, r *recorder, m metricSet) error {
	if w.inProcess {
		// Handler time from the replay, then a loopback segment for what
		// only a real connection shows.
		hit := percentile(durationsTo(r.class("hit"), us), 50)
		m.set("serve.handler_hit_us_p50", hit)
		m.set("serve.handler_miss_us_p50", percentile(durationsTo(r.class("miss"), us), 50))
		lr := newRecorder(nil)
		if err := w.loopback(ctx, w.lastD, lr); err != nil {
			return err
		}
		if err := w.loopMetrics(ctx, lr, m); err != nil {
			return err
		}
		m.set("serve.transport_us_p50", percentile(durationsTo(lr.class("hit"), us), 50)-hit)
		r.absorb(lr)
		return nil
	}
	if err := w.loopMetrics(ctx, r, m); err != nil {
		return err
	}
	cpuPerOp(r, m)
	return nil
}

// loopMetrics fills the serve layer's cache and latency metrics from the
// loopback recorder and the server's /metrics counters, and checks that
// the server counted exactly the hits and misses the clients saw.
func (w *serveWorkload) loopMetrics(ctx context.Context, r *recorder, m metricSet) error {
	prom, err := w.scrape(ctx)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return prom[name] - w.prom0[name] }
	hits, misses := delta("netdag_cache_hits_total"), delta("netdag_cache_misses_total")
	coalesced := delta("netdag_solves_coalesced_total")
	if served := hits + misses + coalesced; served > 0 {
		m.set("serve.hit_ratio", hits/served)
	}
	if misses > 0 {
		m.set("serve.warm_ratio", delta("netdag_warm_seeded_total")/misses)
	}
	m.set("serve.coalesced", coalesced)
	m.set("serve.rejected_429", delta("netdag_admission_rejected_total"))
	hitLat, missLat := r.class("hit"), r.class("miss")
	m.set("serve.hit_latency_ms_p50", percentile(durationsTo(hitLat, ms), 50))
	m.set("serve.miss_latency_ms_p50", percentile(durationsTo(missLat, ms), 50))
	if int(hits) != len(hitLat) || int(misses) != len(missLat) {
		r.fail(fmt.Errorf("server counted %g hits and %g misses, clients saw %d and %d",
			hits, misses, len(hitLat), len(missLat)))
	}
	return nil
}

// scrape reads the server's Prometheus counters (unlabeled series only).
func (w *serveWorkload) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm parses unlabeled "name value" lines of the Prometheus text
// format.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// serverCPU is the server process's user + system CPU time so far.
func (w *serveWorkload) serverCPU() time.Duration {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(w.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0
	}
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * time.Second / clockTicks
}

func (w *serveWorkload) problems() ([]*core.Problem, error) {
	out := make([]*core.Problem, 0, len(w.hotFiles))
	for _, f := range w.hotFiles {
		p, err := spec.Build(f)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
