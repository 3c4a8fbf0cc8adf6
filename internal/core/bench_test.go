package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
)

func benchMIMOProblem(tb testing.TB, greedy bool) *Problem {
	tb.Helper()
	g, err := apps.MIMO(apps.DefaultMIMO())
	if err != nil {
		tb.Fatal(err)
	}
	cons := make(map[dag.TaskID]wh.MissConstraint)
	for _, a := range apps.Actuators(g) {
		cons[a] = wh.MissConstraint{Misses: 24, Window: 40}
	}
	return &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 4,
		Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
		GreedyChi: greedy,
	}
}

func BenchmarkSolveMIMOExactChi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchMIMOProblem(b, false)
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveMIMOGreedyChi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchMIMOProblem(b, true)
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSoftPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := apps.Pipeline(4, 500, 8)
		if err != nil {
			b.Fatal(err)
		}
		sink := g.Sinks()[0]
		p := &Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 3,
			Mode:     Soft,
			SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
			SoftCons: map[dag.TaskID]float64{sink: 0.9},
		}
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveParallel measures the outer-search speedup from the
// worker pool on the MIMO instance, widening MaxRounds by one so the
// assignment space is large enough to matter. The workers=N sub-benches
// report their wall-clock speedup over the workers=1 baseline measured
// in the same run.
func BenchmarkSolveParallel(b *testing.B) {
	mk := func(workers int) *Problem {
		g, err := apps.MIMO(apps.DefaultMIMO())
		if err != nil {
			b.Fatal(err)
		}
		cons := make(map[dag.TaskID]wh.MissConstraint)
		for _, a := range apps.Actuators(g) {
			cons[a] = wh.MissConstraint{Misses: 24, Window: 40}
		}
		lg, err := dag.NewLineGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		return &Problem{
			App: g, Params: glossy.DefaultParams(), Diameter: 4,
			Mode: WeaklyHard, WHStat: glossy.SyntheticWH{}, WHCons: cons,
			GreedyChi: true,
			MaxRounds: lg.MinRounds() + 1,
			Workers:   workers,
		}
	}
	maxW := runtime.GOMAXPROCS(0)
	workerSet := []int{1, 2}
	if maxW > 2 {
		workerSet = append(workerSet, maxW)
	}
	var baseline time.Duration
	for _, w := range workerSet {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(mk(w)); err != nil {
					b.Fatal(err)
				}
			}
			perOp := time.Duration(int64(time.Since(start)) / int64(b.N))
			if w == 1 {
				baseline = perOp
			} else if baseline > 0 {
				b.ReportMetric(float64(baseline)/float64(perOp), "speedup")
			}
		})
	}
}

func BenchmarkGlobalNTXBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchMIMOProblem(b, false)
		if _, err := GlobalNTXBaseline(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleValidate(b *testing.B) {
	p := benchMIMOProblem(b, true)
	s, err := Solve(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(p.App); err != nil {
			b.Fatal(err)
		}
	}
}
