package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
)

// sessionWorkload opens a scheduler session on the pipe8 application
// (Workers = 1) and applies a seeded stream of environment and workload
// events with Session.Apply, one caller. Every event re-solves
// warm-started from the previous makespan (core.Problem.WarmMakespan), so
// this is the workload that judges warm starts. Each journal entry is
// checked: no event may be rejected, the installed schedule (the safe
// mode's, when degraded) must pass the audits, and the entry hash must
// match the committed journal.
//
// The workload runs in passes: each applies the stream's first
// sessionPass events to a fresh session (opened untimed), so every pass
// repeats the same operations and each event's fastest repeat can be
// kept. Short passes also keep the journal short: a session keeps its
// whole journal in memory, and a journal of thousands of entries makes
// every later garbage collection scan it, so one session kept for the
// whole run would slow down as the run goes on and tie the measurement
// to its own length.
type sessionWorkload struct {
	o    Options
	exp  *expected
	sess *session.Session
	gen  *eventGen
	// news holds every session.New time of the set-up repetitions.
	news []time.Duration
	// closed sums the closed sessions' counters.
	closed session.Stats
	// cur is the Apply in flight; the resolve hook attaches its span and
	// accounting there.
	cur struct {
		r    *recorder
		op   int64
		span int
	}
	counted int // events whose explored/nodes counts were summed
}

// sessionCounted is how many applied events the traced run sums the
// explored and node counts over.
const sessionCounted = 100

// sessionPass is how many events one pass applies; the committed journal
// hashes cover them all.
const sessionPass = 256

func newSessionWorkload(o Options) *sessionWorkload { return &sessionWorkload{o: o} }

func (w *sessionWorkload) setupReps() int   { return 9 }
func (w *sessionWorkload) proc() string     { return "self" }
func (w *sessionWorkload) concurrent() bool { return false }
func (w *sessionWorkload) verify(*recorder) {}

func (w *sessionWorkload) setup(ctx context.Context) error {
	exp, err := loadExpected(w.o.Root, "session")
	if err != nil {
		return err
	}
	w.exp = exp
	t0 := time.Now()
	if err := w.open(ctx); err != nil {
		return err
	}
	w.news = append(w.news, time.Since(t0))
	return nil
}

// open starts a session and the event stream from its beginning.
func (w *sessionWorkload) open(ctx context.Context) error {
	s, err := session.New(ctx, pipe8(), session.Config{Workers: 1, ObserveResolve: w.observe})
	if err != nil {
		return err
	}
	w.sess = s
	w.gen = newEventGen(w.o.Seed, s.File())
	return nil
}

func (w *sessionWorkload) close() {
	if w.sess != nil {
		st := w.sess.Close()
		w.closed.Events += st.Events
		w.closed.Applied += st.Applied
		w.closed.WarmHits += st.WarmHits
		w.sess = nil
	}
}

// observe is the session's ObserveResolve hook: one span and one solve
// sample per re-solve attempt.
func (w *sessionWorkload) observe(d time.Duration) {
	if r := w.cur.r; r != nil && r.tr != nil {
		r.tr.record("core.Solve", w.cur.op, w.cur.span, d)
		r.mu.Lock()
		r.solves = append(r.solves, d)
		r.mu.Unlock()
	}
}

// slice runs whole passes for about d.
func (w *sessionWorkload) slice(ctx context.Context, d time.Duration, r *recorder) error {
	w.cur.r = r
	defer func() { w.cur.r = nil }()
	start := time.Now()
	for {
		if err := w.pass(ctx, r); err != nil {
			return err
		}
		r.endPass(0)
		if time.Since(start) >= d {
			return nil
		}
	}
}

// pass applies the stream's first sessionPass events to a fresh session.
func (w *sessionWorkload) pass(ctx context.Context, r *recorder) error {
	if w.sess.Stats().Events > 0 {
		w.close()
		if err := w.open(ctx); err != nil {
			return err
		}
	}
	for i := 0; i < sessionPass; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := w.gen.next(w.sess.File())
		id := r.nextOp.Add(1)
		w.cur.op = id
		root := r.tr.begin("op", id, -1)
		s := r.tr.begin("session.Apply", id, root)
		w.cur.span = s
		var a0 uint64
		if r.tr != nil {
			a0 = heapAllocs()
		}
		cpu0 := cpuNow()
		t0 := time.Now()
		entry, err := w.sess.Apply(ctx, e)
		lat := time.Since(t0)
		cpu := cpuNow() - cpu0
		r.tr.end(s)
		r.tr.end(root)
		if r.tr != nil {
			r.mu.Lock()
			r.allocBytes += heapAllocs() - a0
			r.mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("apply %s: %w", e.Kind, err)
		}
		class := "applied"
		if entry.Outcome == session.OutcomeDegraded {
			class = "degraded"
		}
		r.op(strconv.Itoa(entry.Seq), lat, cpu, class, w.check(entry, r))
	}
	return nil
}

// check judges one journal entry and the schedule it installed.
func (w *sessionWorkload) check(e session.Entry, r *recorder) error {
	key := fmt.Sprintf("entry-%04d", e.Seq)
	switch e.Outcome {
	case session.OutcomeApplied, session.OutcomeRecovered, session.OutcomeDegraded:
	default:
		return fmt.Errorf("%s: %s event %s: %s", key, e.Event.Kind, e.Outcome, e.Error)
	}
	p, sched, _ := w.sess.Current()
	if err := audit(p, sched); err != nil {
		return fmt.Errorf("%s: audit: %w", key, err)
	}
	if sched.Makespan != e.Makespan || len(sched.Rounds) != e.Rounds || sched.BusTime != e.BusTime {
		return fmt.Errorf("%s: journal entry does not describe the installed schedule", key)
	}
	if r.tr != nil && e.Outcome != session.OutcomeDegraded && w.counted < sessionCounted {
		w.counted++
		r.mu.Lock()
		r.explored += int64(sched.Explored)
		r.nodes += int64(sched.SolverNodes)
		r.mu.Unlock()
	}
	return w.exp.check(key, entryHash(e), w.o.Seed)
}

func (w *sessionWorkload) finish(_ context.Context, r *recorder, m metricSet) error {
	cpuPerOp(r, m)
	var news []float64
	for _, d := range w.news {
		news = append(news, ms(d))
	}
	m.set("session.new_ms", median(news))
	st := w.sess.Stats()
	st.Events += w.closed.Events
	st.Applied += w.closed.Applied
	st.WarmHits += w.closed.WarmHits
	if st.Events > 0 {
		m.set("session.applied_ratio", float64(st.Applied)/float64(st.Events))
	}
	if st.Applied > 0 {
		m.set("session.warm_hit_ratio", float64(st.WarmHits)/float64(st.Applied))
	}
	m.set("session.apply_ms_p50_applied", percentile(durationsTo(r.class("applied"), ms), 50))
	m.set("session.apply_ms_p50_degraded", percentile(durationsTo(r.class("degraded"), ms), 50))
	if ratio := float64(st.Applied) / float64(max(st.Events, 1)); ratio < minApplied {
		r.fail(fmt.Errorf("session applied %.0f%% of events, want at least %.0f%%", 100*ratio, 100*minApplied))
	}
	return nil
}

// minApplied is the least share of events that must commit a proven
// schedule (applied or recovered); below it the stream would be
// measuring the degraded path, not warm re-solves.
const minApplied = 0.8

// problems is the session's initial description, the one every slice's
// stream starts from.
func (w *sessionWorkload) problems() ([]*core.Problem, error) {
	p, err := spec.Build(pipe8())
	if err != nil {
		return nil, err
	}
	return []*core.Problem{p}, nil
}

// eventGen draws the session's event stream: the four kinds uniformly,
// an assumed mix rather than one fitted to measured events (README.md).
// Every event is valid for the description it is applied to, so none is
// rejected:
//
//   - diameter: a new hop diameter in [2, 4];
//   - link-quality: a retransmission floor in [1, 3], or, one time in
//     six, one past MaxNTX — an empty χ domain the session must survive
//     by degrading to safe mode; the next event recovers it;
//   - placement: a task moves between its home node and a private
//     alternate, which keeps same-node tasks ordered (paper eq. 1);
//   - task-join / task-leave: a constrained sink joins behind the last
//     stage of one of the shortest pipelines, and leaves again on the
//     next such event. Joining there adds a message at an existing
//     line-graph depth, which keeps every description's search the same
//     size within a few percent; a sink behind a longest pipeline would
//     add a round, multiply the search by 14 and make the stream's cost
//     depend on how long such sinks stay.
type eventGen struct {
	rng   *rand.Rand
	home  map[string]string // task → its node in the initial description
	tails []string          // the last stages of the shortest pipelines
	joins int
}

// joinedPrefix names the sinks the stream joins.
const joinedPrefix = "x"

func newEventGen(seed int64, f *spec.File) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed*104_729 + 7)), home: map[string]string{}}
	for _, t := range f.Tasks {
		g.home[t.Name] = t.Node
	}
	// Depth of each task along its pipeline (tasks are listed in order).
	depth := map[string]int{}
	hasSucc := map[string]bool{}
	for _, e := range f.Edges {
		hasSucc[e.From] = true
	}
	for changed := true; changed; {
		changed = false
		for _, e := range f.Edges {
			if d := depth[e.From] + 1; d > depth[e.To] {
				depth[e.To], changed = d, true
			}
		}
	}
	shallowest := len(f.Tasks)
	for _, t := range f.Tasks {
		if !hasSucc[t.Name] {
			shallowest = min(shallowest, depth[t.Name])
		}
	}
	for _, t := range f.Tasks {
		if !hasSucc[t.Name] && depth[t.Name] == shallowest {
			g.tails = append(g.tails, t.Name)
		}
	}
	return g
}

func (g *eventGen) next(f *spec.File) session.Event {
	maxNTX := f.MaxNTX
	if maxNTX == 0 {
		maxNTX = core.DefaultMaxNTX
	}
	if f.MinNTX > maxNTX {
		return session.Event{Kind: session.KindLink, MinNTX: 1 + g.rng.Intn(3)}
	}
	switch g.rng.Intn(4) {
	case 0:
		d := 2 + g.rng.Intn(3)
		if d == f.Diameter {
			d = 2 + (d-1)%3
		}
		return session.Event{Kind: session.KindDiameter, Diameter: d}
	case 1:
		n := 1 + g.rng.Intn(3)
		if g.rng.Intn(6) == 0 {
			n = maxNTX + 1
		}
		return session.Event{Kind: session.KindLink, MinNTX: n}
	case 2:
		t := f.Tasks[g.rng.Intn(len(f.Tasks))]
		node := t.Name + "-alt"
		if strings.HasSuffix(t.Node, "-alt") {
			node = g.home[t.Name]
		}
		return session.Event{Kind: session.KindPlacement, Task: t.Name, Node: node}
	default:
		for _, t := range f.Tasks {
			if strings.HasPrefix(t.Name, joinedPrefix) {
				return session.Event{Kind: session.KindTaskLeave, Task: t.Name}
			}
		}
		g.joins++
		name := fmt.Sprintf("%s%d", joinedPrefix, g.joins)
		g.home[name] = "n" + name
		return session.Event{
			Kind: session.KindTaskJoin, Task: name, Node: "n" + name,
			WCET: 200 + int64(g.rng.Intn(800)),
			Edges: []spec.EdgeSpec{{
				From: g.tails[g.rng.Intn(len(g.tails))], To: name, Width: 2 + g.rng.Intn(8),
			}},
			WH: &spec.WHSpec{Misses: 30, Window: 40},
		}
	}
}
