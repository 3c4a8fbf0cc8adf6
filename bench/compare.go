package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Benchmark is the part of BENCHMARK.json that compare reads: each
// end-to-end metric's direction and regression bound.
type Benchmark struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm Benchmark
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// baseline is the shape of bench/baseline.json: the results of full runs
// on the reference machine.
type baseline struct {
	Note    string    `json:"note"`
	Results []*Result `json:"results"`
}

// LoadResults reads one results JSON, or a baseline file holding several.
func LoadResults(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rs := base.Results
	if rs == nil {
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rs = []*Result{&r}
	}
	for _, r := range rs {
		if r.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
		}
	}
	return rs, nil
}

// Side summarizes one side's runs of a metric.
type Side struct {
	N              int
	Q1, Median, Q3 float64
}

// Verdict is compare's judgement of one (workload, metric) pair.
type Verdict struct {
	Workload string
	Metric   string
	Unit     string
	A, B     Side
	// Win is the share of (a, b) run pairs in which b reads better; ties
	// count for neither side.
	Win float64
	// Change is (median B − median A) / median A.
	Change float64
	// Bound is the metric's regression bound; zero for per-layer
	// metrics, which get no verdict.
	Bound   float64
	Verdict string
}

// Verdicts.
const (
	Improved    = "improved"
	WithinBound = "within bound"
	Regressed   = "regressed"
	Unresolved  = "unresolved"
	NoVerdict   = "-"
)

// Compare judges runs B against runs A, per workload and metric. An
// end-to-end metric is
//
//   - improved when B wins at least nine tenths of the (a, b) pairs and
//     the medians differ by more than A's quartile distance;
//   - unresolved when either side's quartile distance, as a share of its
//     median, exceeds the bound — unless every B run reads better than
//     every A run — except for setup_s;
//   - regressed when B's median is worse than A's by more than the bound;
//   - within bound otherwise.
//
// setup_s is judged on its median alone: a set-up takes milliseconds,
// its run-to-run spread follows the host and can exceed the bound on
// identical code, and what its bound guards against — work moved out of
// the measured operations into set-up — shows as a shift of the median.
//
// Per-layer metrics are summarized without a verdict.
func Compare(bm *Benchmark, a, b []*Result) []Verdict {
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []*Result) map[key][]*Result {
		g := map[key][]*Result{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	keys := make([]key, 0, len(ga))
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	order := map[string]int{}
	for i, w := range Workloads {
		order[w] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return order[keys[i].workload] < order[keys[j].workload]
	})

	var out []Verdict
	for _, k := range keys {
		type def struct {
			name, unit, better string
			bound              float64
		}
		var defs []def
		if k.trace {
			for _, d := range bm.PerLayer {
				defs = append(defs, def{d.Name, d.Unit, d.Better, 0})
			}
		} else {
			for _, d := range bm.EndToEnd {
				defs = append(defs, def{d.Name, d.Unit, d.Better, d.Bound})
			}
		}
		for _, d := range defs {
			xa, xb := values(ga[k], d.name), values(gb[k], d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, d.better == "higher", d.bound, d.name == "setup_s")
			v.Workload, v.Metric, v.Unit = k.workload, d.name, d.unit
			out = append(out, v)
		}
	}
	return out
}

func values(rs []*Result, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// judge applies Compare's rule to one metric's two samples; medianOnly
// skips the spread test.
func judge(a, b []float64, higherBetter bool, bound float64, medianOnly bool) Verdict {
	side := func(xs []float64) Side {
		q1, q2, q3 := quartiles(xs)
		return Side{N: len(xs), Q1: q1, Median: q2, Q3: q3}
	}
	v := Verdict{A: side(a), B: side(b), Bound: bound}
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	wins, allBetter := 0, true
	for _, x := range a {
		for _, y := range b {
			if better(y, x) {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	v.Win = float64(wins) / float64(len(a)*len(b))
	if v.A.Median != 0 {
		v.Change = (v.B.Median - v.A.Median) / math.Abs(v.A.Median)
	}
	if bound == 0 {
		v.Verdict = NoVerdict
		return v
	}
	worse := v.Change
	if higherBetter {
		worse = -worse
	}
	spread := math.Max(iqrShare(a), iqrShare(b))
	switch {
	case v.Win >= 0.9 && better(v.B.Median, v.A.Median) && math.Abs(v.B.Median-v.A.Median) > v.A.Q3-v.A.Q1:
		v.Verdict = Improved
	case !medianOnly && spread > bound && !allBetter:
		v.Verdict = Unresolved
	case worse > bound:
		v.Verdict = Regressed
	default:
		v.Verdict = WithinBound
	}
	return v
}

// PrintVerdicts writes compare's table.
func PrintVerdicts(w io.Writer, vs []Verdict) {
	fmt.Fprintf(w, "%-8s %-30s %-6s %3s %12s %12s %12s %3s %12s %12s %12s %7s %5s %6s  %s\n",
		"workload", "metric", "unit", "nA", "A.q1", "A.median", "A.q3", "nB", "B.q1", "B.median", "B.q3",
		"change", "win", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-8s %-30s %-6s %3d %12.5g %12.5g %12.5g %3d %12.5g %12.5g %12.5g %+6.1f%% %5.2f %6.2f  %s\n",
			v.Workload, v.Metric, v.Unit, v.A.N, v.A.Q1, v.A.Median, v.A.Q3,
			v.B.N, v.B.Q1, v.B.Median, v.B.Q3, 100*v.Change, v.Win, v.Bound, v.Verdict)
	}
}
