package bench

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload for about a second, and one traced run,
// against a freshly built netdag-serve: every metric BENCHMARK.json names
// must be emitted with its unit, and no output check may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds netdag-serve and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := LoadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkDefs := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness %d", len(names), kind, len(defs))
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], harness %s [%s]",
					kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, d := range bm.EndToEnd {
		names, units = append(names, d.Name), append(units, d.Unit)
	}
	checkDefs("end-to-end", endToEnd, names, units)
	names, units = nil, nil
	for _, d := range bm.PerLayer {
		names, units = append(names, d.Name), append(units, d.Unit)
	}
	checkDefs("per-layer", perLayer, names, units)

	bin := filepath.Join(t.TempDir(), "netdag-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/netdag-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build netdag-serve: %v\n%s", err, out)
	}

	run := func(workload string, d time.Duration, trace bool) {
		t.Helper()
		res, err := Run(context.Background(), Options{
			Root: root, ServeBin: bin, Workload: workload, Seed: expectedSeed, Duration: d, Trace: trace,
		})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.ErrorRatio != 0 || !res.Correct {
			t.Errorf("%s trace=%v: %d of %d checks failed: %v", workload, trace, res.Failed, res.Attempted, res.Failures)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		got := res.Reported()
		for _, d := range defs {
			m, ok := got[d.name]
			switch {
			case !ok:
				t.Errorf("%s trace=%v: metric %s not emitted", workload, trace, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s: metric %s unit %q, want %q", workload, d.name, m.Unit, d.unit)
			case !trace && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", workload, d.name, m.Value)
			}
		}
	}
	for _, w := range Workloads {
		run(w, time.Second, false)
	}
	// serve spreads its profile over every layer, so a short traced run
	// still samples each share pattern.
	run("serve", 4*time.Second, true)
}
