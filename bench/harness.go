// Package bench is the NETDAG benchmark harness: one program that runs
// named workloads against the scheduler from outside — timing calls into
// the public functions of spec, dag, core, serve and session, and driving
// the real netdag-serve binary over loopback — and reports end-to-end and
// per-layer metrics, checking every output on the way.
//
// The workloads, the reason each exists, and the metric → layer table are
// in README.md; cmd/netdag-bench is the command-line entry point.
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/netdag/netdag/internal/core"
)

// Options configure one benchmark run.
type Options struct {
	// Root is the repository root: the corpus is read from
	// examples/corpus and the committed hashes from
	// bench/testdata/expected.
	Root string
	// ServeBin is the netdag-serve binary the serve workload starts.
	ServeBin string
	// Workload names the traffic mix (see Workloads).
	Workload string
	// Seed generates every input.
	Seed int64
	// Duration is the measured time. Set-up is not included.
	Duration time.Duration
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// OutDir receives results/ and trace/ files; empty writes none.
	OutDir string
}

// Workloads lists the workload names in the order they are reported.
var Workloads = []string{"corpus", "hard", "serve", "session"}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the scheduler sees, reported by
// every untraced run. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_p90_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics, reported by every traced run.
// BENCHMARK.json lists the same names and units; README.md maps each to
// the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"spec.decode_us_p50", "us"},
	{"spec.build_us_p50", "us"},
	{"spec.export_us_p50", "us"},
	{"spec.fingerprint_us_p50", "us"},
	{"spec.share", "ratio"},
	{"dag.enumerate_ms", "ms"},
	{"dag.assignments", "count"},
	{"core.solve_ms_p50", "ms"},
	{"core.solve_ms_tail", "ms"},
	{"core.explored", "count"},
	{"core.solver_nodes", "count"},
	{"core.alloc_kb_per_solve", "KB"},
	{"core.chi_share", "ratio"},
	{"core.place_share", "ratio"},
	{"core.outer_share", "ratio"},
	{"stn.share", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"serve.hit_ratio", "ratio"},
	{"serve.warm_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected_429", "count"},
	{"serve.hit_latency_ms_p50", "ms"},
	{"serve.miss_latency_ms_p50", "ms"},
	{"serve.handler_hit_us_p50", "us"},
	{"serve.handler_miss_us_p50", "us"},
	{"serve.transport_us_p50", "us"},
	{"session.new_ms", "ms"},
	{"session.applied_ratio", "ratio"},
	{"session.warm_hit_ratio", "ratio"},
	{"session.apply_ms_p50_applied", "ms"},
	{"session.apply_ms_p50_degraded", "ms"},
	{"host.calib_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// metricSet maps metric names to values.
type metricSet map[string]Metric

func (m metricSet) set(name string, v float64) {
	m[name] = Metric{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: unknown metric " + name)
}

// Env describes the machine a result was measured on.
type Env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentEnv() Env {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return Env{
		CPU: cpu, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// Result is one run's record: the results JSON netdag-bench writes and
// `netdag-bench compare` reads.
type Result struct {
	Schema         string    `json:"schema"`
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Seconds        float64   `json:"seconds"`
	Trace          bool      `json:"trace"`
	Env            Env       `json:"env"`
	TailPercentile float64   `json:"tailPercentile"`
	Samples        int       `json:"samples"`
	Correct        bool      `json:"correct"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	ErrorRatio     float64   `json:"errorRatio"`
	Failures       []string  `json:"failures,omitempty"`
	Metrics        metricSet `json:"metrics"`
	// Profile lists the heaviest scheduler functions of a traced run's
	// CPU profile by cumulative share, for diagnosis.
	Profile []ProfileRow `json:"profile,omitempty"`
	// Slices records each measured slice, for diagnosing drift within a
	// run.
	Slices []SliceRecord `json:"slices,omitempty"`
}

// SliceRecord is one measured slice of a run.
type SliceRecord struct {
	Ops        int     `json:"ops"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughputPerS"`
	// CalibMS is the reference kernel's time right after the slice.
	CalibMS float64 `json:"calibMS"`
	// PeakRSSMB is the working process's peak RSS (VmHWM) at the
	// slice's end.
	PeakRSSMB float64 `json:"peakRSSMB"`
}

// ProfileRow is one function of a CPU profile and its cumulative share
// of the samples.
type ProfileRow struct {
	Name     string  `json:"name"`
	CumShare float64 `json:"cumShare"`
}

// resultSchema versions the results JSON. Version 2 took the median and
// throughput of repeated operations from their fastest repeats.
const resultSchema = "netdag-bench/2"

// Reported returns the metrics a run prints on its last line: every
// end-to-end metric for an untraced run, every per-layer one for a
// traced run.
func (r *Result) Reported() metricSet {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := metricSet{}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			out[d.name] = m
		}
	}
	return out
}

// Summary is the last line of a run's standard output.
type Summary struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// Summary returns the run's last-line summary.
func (r *Result) Summary() Summary {
	return Summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Reported()}
}

// recorder collects one workload's operations: latencies (pooled, per
// class and per repeated operation), CPU, failures, per-slice throughput
// and, in traced runs, spans and solver accounting. Client goroutines
// share it.
type recorder struct {
	tr     *tracer
	nextOp atomic.Int64

	mu        sync.Mutex
	lat       []time.Duration
	classes   map[string][]time.Duration
	attempted int
	failed    int
	failures  []string
	busy      time.Duration
	slices    []SliceRecord

	// best is each repeated operation's fastest latency, keyed by the
	// operation's identity within a pass (see op).
	best map[string]time.Duration
	// passCPU is each finished pass's CPU time per operation; passOps and
	// passCPUSum accumulate the pass in progress.
	passCPU    []float64
	passOps    int
	passCPUSum time.Duration

	// Solver accounting for the traced run: every solve's wall time and
	// allocated bytes, plus the explored/nodes counts summed over a fixed
	// set of the workload's solves (README.md lists which).
	solves     []time.Duration
	allocBytes uint64
	explored   int64
	nodes      int64
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, classes: map[string][]time.Duration{}, best: map[string]time.Duration{}}
}

// maxFailures bounds how many failure descriptions a result keeps.
const maxFailures = 20

// op records one finished operation. key names an operation that every
// pass repeats identically (a corpus spec, a session event's position in
// the stream), so that its fastest repeat can be kept; "" for an
// operation that does not repeat. class groups latencies for per-class
// metrics ("" for none); err marks a failed operation, which still
// counts in the latency pool.
func (r *recorder) op(key string, lat, cpu time.Duration, class string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.lat = append(r.lat, lat)
	r.busy += lat
	r.passOps++
	r.passCPUSum += cpu
	if key != "" {
		if b, ok := r.best[key]; !ok || lat < b {
			r.best[key] = lat
		}
	}
	if class != "" {
		r.classes[class] = append(r.classes[class], lat)
	}
	if err != nil {
		r.failLocked(err)
	}
}

// endPass closes a pass over the workload's operations, adding cpu (CPU
// time not attributed to single operations, such as a server's) to it.
func (r *recorder) endPass(cpu time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.passCPUSum += cpu
	if r.passOps > 0 {
		r.passCPU = append(r.passCPU, ms(r.passCPUSum)/float64(r.passOps))
	}
	r.passOps, r.passCPUSum = 0, 0
}

// fail records a failed check outside any timed operation (set-up
// outputs, end-of-run counters).
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failLocked(err)
}

// pass records a successful check outside any timed operation.
func (r *recorder) pass() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *recorder) failLocked(err error) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, err.Error())
	}
}

// solve records one traced solve.
func (r *recorder) solve(d time.Duration, alloc uint64) {
	r.mu.Lock()
	r.solves = append(r.solves, d)
	r.allocBytes += alloc
	r.mu.Unlock()
}

// absorb adds another recorder's check counts and failures.
func (r *recorder) absorb(o *recorder) {
	o.mu.Lock()
	attempted, failed, failures := o.attempted, o.failed, o.failures
	o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	for _, f := range failures {
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *recorder) snapshot() (ops int, busy time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lat), r.busy
}

func (r *recorder) class(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.classes[name]...)
}

// cpuNow is the process's user + system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procMB reads a kB field of /proc/<proc>/status ("VmRSS", "VmHWM") in
// MiB; proc is a /proc entry name ("self" or a PID).
func procMB(proc, field string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", proc, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s missing from /proc/%s/status", field, proc)
}

// rssEvery is the RSS sampling period.
const rssEvery = 50 * time.Millisecond

// rssSampler records the working process's resident set size every
// rssEvery while the measured slices run. The memory metric is a high
// percentile of these samples rather than the process's peak: with a
// heap of a few MiB, the peak is set by whether one collection happens
// to start during one large solve, and reads 15 or 23 MiB on the same
// code from run to run.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS(proc string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v, err := procMB(proc, "VmRSS"); err == nil {
					s.mb = append(s.mb, v)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples, sorted.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return sortedCopy(s.mb)
}

// workload is one named traffic mix.
type workload interface {
	// setupReps is how many times the harness sets the workload up before
	// the first slice (all but the last are closed again), and how many
	// spare instances it sets up after each slice, for the median set-up
	// time.
	setupReps() int
	// setup builds the inputs and starts whatever serves them. Timed.
	setup(ctx context.Context) error
	// verify checks what setup produced, untimed.
	verify(r *recorder)
	// slice runs operations for about d, recording each into r; traced
	// when r.tr is set.
	slice(ctx context.Context, d time.Duration, r *recorder) error
	// concurrent reports whether operations overlap, in which case
	// throughput is per wall second rather than per busy second.
	concurrent() bool
	// proc names the /proc entry of the process doing the work: "self",
	// or the server's PID.
	proc() string
	// finish adds what the workload itself measured over the run — the
	// working process's CPU, counters and per-class latency metrics — and
	// checks end-of-run invariants.
	finish(ctx context.Context, r *recorder, m metricSet) error
	// problems returns the workload's distinct solver inputs, freshly
	// built, for the enumeration metrics.
	problems() ([]*core.Problem, error)
	close()
}

// newWorkload returns the named workload.
func newWorkload(name string, o Options) (workload, error) {
	switch name {
	case "corpus":
		return newCorpus(o), nil
	case "hard":
		return newHard(o), nil
	case "serve":
		return newServe(o), nil
	case "session":
		return newSessionWorkload(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Workloads, ", "))
}

// tailPreferred is each workload's calibrated tail percentile: the
// highest rung of tailLadder whose value repeats within the bound of
// latency_ms_tail across seeds (see README.md). Shorter runs step down
// the ladder automatically.
var tailPreferred = map[string]float64{
	"corpus":  99,
	"hard":    90,
	"serve":   99,
	"session": 99,
}

// sliceTarget is the length of one measured slice. Throughput is the
// median over slices, which damps host drift within a run.
const sliceTarget = 5 * time.Second

// Run executes one benchmark run and returns its result. It fails only
// when the workload cannot be set up or driven at all; failed output
// checks are counted in the result.
func Run(ctx context.Context, o Options) (*Result, error) {
	w, err := newWorkload(o.Workload, o)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Schema: resultSchema, Workload: o.Workload, Seed: o.Seed,
		Seconds: o.Duration.Seconds(), Trace: o.Trace, Env: currentEnv(),
		Metrics: metricSet{},
	}

	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	var rec *recorder
	if o.Trace {
		res.Metrics.set("setup_s", median(setups))
		rec, err = runTraced(ctx, o, w, res)
	} else {
		rec, err = runUntraced(ctx, o, w, res, setups)
	}
	if err != nil {
		return nil, err
	}

	rec.mu.Lock()
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Failures = rec.failures
	rec.mu.Unlock()
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", o.Workload)
	}
	res.ErrorRatio = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	if err := writeResult(o, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runUntraced measures the end-to-end metrics: the workload in slices of
// about sliceTarget, and between slices the reference kernel and as many
// spare set-ups as the run began with. setup_s is the median of all of
// them: set-up takes milliseconds, and the host's speed changes over
// seconds, so set-ups spread over the run sample it better than set-ups
// back to back.
func runUntraced(ctx context.Context, o Options, w workload, res *Result, setups []float64) (*recorder, error) {
	rec := newRecorder(nil)
	w.verify(rec)
	n := int(math.Round(float64(o.Duration) / float64(sliceTarget)))
	if n < 1 {
		n = 1
	}
	var samples []float64
	for i := 0; i < n; i++ {
		rss := sampleRSS(w.proc())
		err := runSlice(ctx, w, rec, o.Duration/time.Duration(n))
		samples = append(samples, rss.finish()...)
		if err != nil {
			return nil, err
		}
		spare, err := spareSetups(ctx, o, w.setupReps())
		if err != nil {
			return nil, err
		}
		setups = append(setups, spare...)
	}
	res.Metrics.set("setup_s", median(setups))
	if len(samples) == 0 {
		return nil, errors.New("no RSS sample taken")
	}
	res.Metrics.set("rss_p90_mb", percentile(sortedCopy(samples), 90))
	if err := w.finish(ctx, rec, res.Metrics); err != nil {
		return nil, err
	}
	latencyMetrics(o.Workload, rec, res)
	var calib []float64
	for _, sl := range rec.slices {
		calib = append(calib, sl.CalibMS)
	}
	res.Metrics.set("host.calib_ms", median(calib))
	res.Slices = rec.slices
	return rec, nil
}

// spareSetups sets up n throwaway instances of the workload one after
// another, closing each, and returns their set-up times in seconds.
func spareSetups(ctx context.Context, o Options, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		sw, err := newWorkload(o.Workload, o)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = sw.setup(ctx)
		d := time.Since(t0)
		sw.close()
		if err != nil {
			return nil, fmt.Errorf("%s spare set-up: %w", o.Workload, err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// runSlice runs one slice, then the reference kernel, and records the
// slice: its throughput — operations per busy second for a single
// caller, per wall second for concurrent callers — the kernel's time and
// the working process's peak RSS so far.
func runSlice(ctx context.Context, w workload, rec *recorder, d time.Duration) error {
	ops0, busy0 := rec.snapshot()
	t0 := time.Now()
	if err := w.slice(ctx, d, rec); err != nil {
		return err
	}
	wall := time.Since(t0)
	ops, busy := rec.snapshot()
	denom := busy - busy0
	if w.concurrent() {
		denom = wall
	}
	sl := SliceRecord{Ops: ops - ops0, Seconds: wall.Seconds(), CalibMS: ms(calibrate())}
	if denom > 0 {
		sl.Throughput = float64(sl.Ops) / denom.Seconds()
	}
	sl.PeakRSSMB, _ = procMB(w.proc(), "VmHWM") // diagnostic only
	rec.mu.Lock()
	rec.slices = append(rec.slices, sl)
	rec.mu.Unlock()
	return nil
}

// throughputs lists the slices' throughputs.
func throughputs(slices []SliceRecord) []float64 {
	var xs []float64
	for _, sl := range slices {
		if sl.Ops > 0 {
			xs = append(xs, sl.Throughput)
		}
	}
	return xs
}

// latencyMetrics fills the latency quantiles and throughput.
//
// Where every pass repeats the same operations (corpus, hard, session),
// the median and the throughput come from each operation's fastest
// repeat: the median over operations of their best latency, and the
// operations of one pass over the sum of their best latencies. Other
// tenants of the host only ever add time, and on a shared VM they add it
// to most operations, so the fastest repeat is the steadiest estimate of
// what the code costs. The tail pools every repeat, because it is meant
// to show the slow cases. Where operations do not repeat (serve), the
// median pools every operation and the throughput is the median over
// slices.
func latencyMetrics(name string, rec *recorder, res *Result) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	lat := durationsTo(rec.lat, ms)
	q := tailPercentile(len(lat), tailPreferred[name])
	res.TailPercentile = q
	res.Samples = len(lat)
	res.Metrics.set("latency_ms_tail", percentile(lat, q))
	if len(rec.best) == 0 {
		res.Metrics.set("latency_ms_p50", percentile(lat, 50))
		res.Metrics.set("throughput_per_s", median(throughputs(rec.slices)))
		return
	}
	best := make([]float64, 0, len(rec.best))
	sum := 0.0
	for _, d := range rec.best {
		best = append(best, ms(d))
		sum += ms(d)
	}
	res.Metrics.set("latency_ms_p50", median(best))
	res.Metrics.set("throughput_per_s", float64(len(best))/(sum/1000))
}

// cpuPerOp fills cpu_ms_per_op: the working process's CPU time per
// operation in the cheapest pass. Per-operation CPU cannot take a
// fastest repeat the way latency does, because the runtime's background
// work (garbage collection on the other core) lands on some operations
// and not others; a whole pass carries its share.
func cpuPerOp(r *recorder, m metricSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.passCPU) > 0 {
		m.set("cpu_ms_per_op", sortedCopy(r.passCPU)[0])
	}
}

// calibSink keeps calibrate's loop from being optimized away.
var calibSink uint64

// calibrate runs a fixed pure-Go reference kernel (a xorshift stream)
// and returns its wall time. It diagnoses host drift between slices;
// nothing is normalized by it.
func calibrate() time.Duration {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 3_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x & 1023
	}
	calibSink = acc
	return time.Since(t0)
}

// writeResult stores the result under OutDir/results.
func writeResult(o Options, res *Result) error {
	if o.OutDir == "" {
		return nil
	}
	dir := filepath.Join(o.OutDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", res.Workload, res.Seed, boolInt(res.Trace),
		time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Print writes every metric of the result by name with its unit, one per
// line, in table order.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v tail=p%g samples=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.TailPercentile, r.Samples, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		order[d.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}
