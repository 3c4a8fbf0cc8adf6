package bench

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// homes maps per-layer metric prefixes to the workload that measures
// them. A traced run of another workload runs a short traced pass of each
// home as well, so every traced run reports every per-layer metric.
var homes = []struct{ prefix, workload string }{
	{"spec.", "corpus"},
	{"serve.", "serve"},
	{"session.", "session"},
}

// runTraced is the traced run: a separate, shorter pass per workload that
// measures the per-layer metrics. Of the run's duration, a fifth runs the
// workload untraced (the baseline for trace.overhead_ratio), two fifths
// run it with spans around every public call and a CPU profile, and a
// fifth goes to each home workload of the spec, serve and session
// metrics. Metrics of the core, dag, host, trace, runtime and stn layers
// describe the named workload.
func runTraced(ctx context.Context, o Options, w workload, res *Result) (*recorder, error) {
	d := o.Duration / 5
	dir := ""
	if o.OutDir != "" {
		dir = filepath.Join(o.OutDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	} else {
		tmp, err := os.MkdirTemp("", "netdag-bench-trace")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.Workload, o.Seed))

	rec := newRecorder(nil)
	w.verify(rec)
	if err := runSlice(ctx, w, rec, d); err != nil {
		return nil, err
	}

	tr := newTracer()
	trec := newRecorder(tr)
	prof := stem + ".cpu.pprof"
	stop, err := startProfile(prof)
	if err != nil {
		return nil, err
	}
	err = runSlice(ctx, w, trec, 2*d)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if base := median(throughputs(rec.slices)); base > 0 {
		res.Metrics.set("trace.overhead_ratio", median(throughputs(trec.slices))/base)
	}
	res.Metrics.set("host.calib_ms", trec.slices[0].CalibMS)
	solverMetrics(o.Workload, trec, res.Metrics)
	if err := dagMetrics(w, res.Metrics); err != nil {
		return nil, err
	}
	if err := w.finish(ctx, trec, res.Metrics); err != nil {
		return nil, err
	}
	if err := shareMetrics(prof, res.Metrics); err != nil {
		return nil, err
	}
	if res.Profile, err = profileTop(prof, 15); err != nil {
		return nil, err
	}
	latencyMetrics(o.Workload, trec, res)
	rec.absorb(trec)
	if err := tr.writeJSONL(stem + ".spans.jsonl"); err != nil {
		return nil, err
	}

	for _, h := range homes {
		if h.workload == o.Workload {
			continue
		}
		m, hrec, err := runHome(ctx, o, h.workload, d, stem)
		if err != nil {
			return nil, err
		}
		for name, v := range m {
			if strings.HasPrefix(name, h.prefix) {
				res.Metrics[name] = v
			}
		}
		rec.absorb(hrec)
	}
	return rec, nil
}

// runHome sets up a home workload once and runs one traced slice of it.
func runHome(ctx context.Context, o Options, name string, d time.Duration, stem string) (metricSet, *recorder, error) {
	o.Workload = name
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	tr := newTracer()
	r := newRecorder(tr)
	w.verify(r)
	if err := runSlice(ctx, w, r, d); err != nil {
		return nil, nil, err
	}
	m := metricSet{}
	if err := w.finish(ctx, r, m); err != nil {
		return nil, nil, err
	}
	if err := tr.writeJSONL(stem + "-" + name + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	return m, r, nil
}

// solverMetrics fills the core layer's metrics from the traced solves.
func solverMetrics(name string, r *recorder, m metricSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	solves := durationsTo(r.solves, ms)
	m.set("core.solve_ms_p50", percentile(solves, 50))
	m.set("core.solve_ms_tail", percentile(solves, tailPercentile(len(solves), tailPreferred[name])))
	m.set("core.explored", float64(r.explored))
	m.set("core.solver_nodes", float64(r.nodes))
	if len(solves) > 0 {
		m.set("core.alloc_kb_per_solve", float64(r.allocBytes)/1024/float64(len(solves)))
	}
}

// dagMetrics times the outer search's enumeration alone over the
// workload's distinct inputs: dag.NewLineGraph plus EnumerateAssignments
// with a no-op visitor under Solve's maxRounds rule, the median of three
// passes, and the assignment count of one pass.
func dagMetrics(w workload, m metricSet) error {
	ps, err := w.problems()
	if err != nil {
		return err
	}
	var times []float64
	total := 0
	for rep := 0; rep < 3; rep++ {
		total = 0
		t0 := time.Now()
		for _, p := range ps {
			n, err := enumerate(p)
			if err != nil {
				return err
			}
			total += n
		}
		times = append(times, ms(time.Since(t0)))
	}
	m.set("dag.enumerate_ms", median(times))
	m.set("dag.assignments", float64(total))
	return nil
}

// profileTop returns the n heaviest functions of the scheduler's own
// packages (internal/...) in a CPU profile, by cumulative samples; the
// harness's frames, which sit under everything, are left out.
func profileTop(profile string, n int) ([]ProfileRow, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", profile).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, out)
	}
	top, err := parsePprofTop(string(out))
	if err != nil {
		return nil, err
	}
	var rows []ProfileRow
	for _, r := range top.Rows {
		if len(rows) == n || top.Total == 0 {
			break
		}
		if strings.Contains(r.Name, "/netdag/internal/") {
			rows = append(rows, ProfileRow{Name: r.Name, CumShare: float64(r.Cum) / float64(top.Total)})
		}
	}
	return rows, nil
}
