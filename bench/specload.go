package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
)

// specWorkload runs the in-process spec in → schedule out operation over
// a fixed list of inputs, in seeded order, one caller, whole passes at a
// time. One operation is
//
//	bytes → spec.Decode → spec.Fingerprint → spec.Build → core.Solve → spec.WriteJSON
//
// and its output is checked after the timer stops: the expected outcome
// (a schedule, or core.ErrUnsat for an unsat input), Schedule.Validate,
// the constraint audits, and the schedule hash — against the committed
// hash where one exists, and against the first pass's output on every
// later pass. corpus and hard are two instances.
type specWorkload struct {
	name    string
	o       Options
	workers int // core.Problem.Workers
	reps    int
	load    func() ([]namedSpec, error)

	exp    *expected
	inputs []namedSpec
	order  *rand.Rand

	// passes is how many whole passes a slice of each requested length
	// runs, fixed by the first such slice, so every slice's throughput
	// covers the same whole passes.
	passes map[time.Duration]int
	// first is each input's output from its first solve: its bytes and
	// schedule hash.
	first map[string]firstOut
	// counted marks that a traced pass already summed the explored and
	// node counts.
	counted bool
}

type firstOut struct {
	body []byte
	hash string
}

func newCorpus(o Options) *specWorkload {
	return &specWorkload{
		name: "corpus", o: o, workers: 1, reps: 9,
		load: func() ([]namedSpec, error) { return loadCorpus(o.Root) },
	}
}

func newHard(o Options) *specWorkload {
	return &specWorkload{
		name: "hard", o: o, workers: 0, reps: 3,
		load: func() ([]namedSpec, error) { return hardTier(o.Seed) },
	}
}

// loadCorpus reads the committed scenario corpus in MANIFEST order,
// checking every file against its recorded SHA-256, and marks the
// manifest's unsat members.
func loadCorpus(root string) ([]namedSpec, error) {
	dir := filepath.Join(root, "examples", "corpus")
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return nil, err
	}
	var man struct {
		Entries []struct {
			File   string `json:"file"`
			SHA256 string `json:"sha256"`
			Status string `json:"status"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("corpus manifest: %w", err)
	}
	if len(man.Entries) == 0 {
		return nil, errors.New("corpus manifest lists no scenarios")
	}
	out := make([]namedSpec, 0, len(man.Entries))
	for _, e := range man.Entries {
		body, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return nil, err
		}
		if sha(body) != e.SHA256 {
			return nil, fmt.Errorf("corpus %s does not match its manifest hash", e.File)
		}
		out = append(out, namedSpec{name: e.File, body: body, unsat: e.Status == "unsat"})
	}
	return out, nil
}

func (w *specWorkload) setupReps() int   { return w.reps }
func (w *specWorkload) concurrent() bool { return false }
func (w *specWorkload) close()           {}
func (w *specWorkload) proc() string     { return "self" }

func (w *specWorkload) setup(ctx context.Context) error {
	exp, err := loadExpected(w.o.Root, w.name)
	if err != nil {
		return err
	}
	inputs, err := w.load()
	if err != nil {
		return err
	}
	w.exp, w.inputs = exp, inputs
	w.order = rand.New(rand.NewSource(w.o.Seed))
	w.first = make(map[string]firstOut, len(inputs))
	w.passes = map[time.Duration]int{}
	return nil
}

func (w *specWorkload) verify(*recorder) {}

func (w *specWorkload) slice(ctx context.Context, d time.Duration, r *recorder) error {
	start := time.Now()
	want, fixed := w.passes[d]
	for pass := 0; ; pass++ {
		if fixed && pass == want {
			break
		}
		if !fixed && pass > 0 && time.Since(start) >= d {
			w.passes[d] = pass
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var explored, nodes int64
		for _, i := range w.order.Perm(len(w.inputs)) {
			e, n := w.op(&w.inputs[i], r)
			explored += int64(e)
			nodes += int64(n)
		}
		r.endPass(0)
		if r.tr != nil && !w.counted {
			w.counted = true
			r.mu.Lock()
			r.explored, r.nodes = explored, nodes
			r.mu.Unlock()
		}
	}
	return nil
}

// op runs and checks one operation, returning the schedule's explored
// and node counts (zero for an unsat input).
func (w *specWorkload) op(in *namedSpec, r *recorder) (explored, nodes int) {
	id := r.nextOp.Add(1)
	tr := r.tr
	var (
		out      bytes.Buffer
		p        *core.Problem
		sched    *core.Schedule
		err      error
		solveErr error
		alloc    uint64
	)
	cpu0 := cpuNow()
	t0 := time.Now()
	root := tr.begin("op", id, -1)
	err = func() error {
		s := tr.begin("spec.Decode", id, root)
		f, err := spec.Decode(bytes.NewReader(in.body))
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("spec.Fingerprint", id, root)
		_, err = spec.Fingerprint(f)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("spec.Build", id, root)
		p, err = spec.Build(f)
		tr.end(s)
		if err != nil {
			return err
		}
		p.Workers = w.workers
		var a0 uint64
		if tr != nil {
			a0 = heapAllocs()
		}
		s = tr.begin("core.Solve", id, root)
		ts := time.Now()
		sched, solveErr = core.Solve(p)
		ds := time.Since(ts)
		tr.end(s)
		if tr != nil {
			alloc = heapAllocs() - a0
			r.solve(ds, alloc)
		}
		if solveErr != nil {
			return nil
		}
		s = tr.begin("spec.WriteJSON", id, root)
		err = spec.WriteJSON(&out, p, sched)
		tr.end(s)
		return err
	}()
	tr.end(root)
	lat := time.Since(t0)
	cpu := cpuNow() - cpu0

	if err == nil {
		err = w.check(in, p, sched, solveErr, out.Bytes())
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", in.name, err)
	}
	r.op(in.name, lat, cpu, "", err)
	if sched != nil {
		return sched.Explored, sched.SolverNodes
	}
	return 0, 0
}

// check judges one operation's outcome.
func (w *specWorkload) check(in *namedSpec, p *core.Problem, sched *core.Schedule, solveErr error, body []byte) error {
	if in.unsat {
		if !errors.Is(solveErr, core.ErrUnsat) {
			return fmt.Errorf("want core.ErrUnsat, got %v", solveErr)
		}
		return w.exp.check(in.name, unsatHash, w.o.Seed)
	}
	if solveErr != nil {
		return fmt.Errorf("solve: %w", solveErr)
	}
	if !sched.Optimal {
		return errors.New("schedule not proven optimal")
	}
	if err := audit(p, sched); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	prev, seen := w.first[in.name]
	if seen && w.workers == 1 {
		// The sequential search is deterministic down to its work
		// counters, so every pass must reproduce the first byte for byte.
		if !bytes.Equal(body, prev.body) {
			return errors.New("output differs from the first pass")
		}
		return nil
	}
	h, err := bodyHash(body)
	if err != nil {
		return err
	}
	if seen {
		if h != prev.hash {
			return errors.New("schedule differs from the first pass")
		}
		return nil
	}
	w.first[in.name] = firstOut{body: append([]byte(nil), body...), hash: h}
	return w.exp.check(in.name, h, w.o.Seed)
}

func (w *specWorkload) finish(_ context.Context, r *recorder, m metricSet) error {
	cpuPerOp(r, m)
	if r.tr != nil {
		specLayerMetrics(r, m)
	}
	return nil
}

func (w *specWorkload) problems() ([]*core.Problem, error) {
	out := make([]*core.Problem, 0, len(w.inputs))
	for _, in := range w.inputs {
		f, err := spec.Decode(bytes.NewReader(in.body))
		if err != nil {
			return nil, err
		}
		p, err := spec.Build(f)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// specLayerMetrics derives the spec layer's metrics from the traced
// operation spans: per-call medians, and spec.share — the median over
// operations of the decode + build + export time as a share of the
// operation's latency.
func specLayerMetrics(r *recorder, m metricSet) {
	for _, c := range []struct{ span, metric string }{
		{"spec.Decode", "spec.decode_us_p50"},
		{"spec.Build", "spec.build_us_p50"},
		{"spec.WriteJSON", "spec.export_us_p50"},
		{"spec.Fingerprint", "spec.fingerprint_us_p50"},
	} {
		m.set(c.metric, percentile(durationsTo(r.tr.durations(c.span), us), 50))
	}
	parts := r.tr.opSums("spec.Decode", "spec.Build", "spec.WriteJSON")
	ops := r.tr.opSums("op")
	var shares []float64
	for id, total := range ops {
		if total > 0 {
			shares = append(shares, float64(parts[id])/float64(total))
		}
	}
	m.set("spec.share", median(shares))
}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
