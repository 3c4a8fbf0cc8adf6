// Command netdag-bench runs the NETDAG benchmark: named workloads driven
// from outside the scheduler, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one, every output checked.
//
// Usage:
//
//	netdag-bench -workload corpus|hard|serve|session|all [-seed 1] [-seconds 20] [-trace 0|1]
//	             [-root .] [-serve-bin .bench_build/bin/netdag-serve] [-out-dir .bench_build]
//	netdag-bench compare [-benchmark BENCHMARK.json] A.json... -- B.json...   (bench/baseline.json works as a side)
//	netdag-bench expect [-root .]
//
// A run prints every metric by name with its unit, then, as its last
// line, a JSON summary {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (or, with -trace 1, the per-layer
// ones). It writes the full result to <out-dir>/results/ and exits 1 when
// any output check failed. -workload all runs each workload in a fresh
// child process.
//
// compare judges the runs B against the runs A per workload and metric
// with the bounds in BENCHMARK.json, and exits 1 on any regressed or
// unresolved end-to-end metric. expect rewrites the committed output
// hashes in bench/testdata/expected from direct sequential solves.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/netdag/netdag/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "expect":
			os.Exit(expect(ctx, os.Args[2:]))
		}
	}
	os.Exit(run(ctx, os.Args[1:]))
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("netdag-bench", flag.ExitOnError)
	workload := fs.String("workload", "", "corpus | hard | serve | session | all")
	seed := fs.Int64("seed", 1, "seed that generates every input")
	seconds := fs.Float64("seconds", 20, "measured seconds per run (set-up excluded)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "repository root")
	serveBin := fs.String("serve-bin", ".bench_build/bin/netdag-serve", "netdag-serve binary for the serve workload")
	outDir := fs.String("out-dir", "", "directory for results/ and trace/ (empty = write none)")
	fs.Parse(args)
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "netdag-bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "netdag-bench: -seconds must be positive")
		return 2
	}
	if *workload == "all" {
		return runAll(ctx, args)
	}
	res, err := bench.Run(ctx, bench.Options{
		Root: *root, ServeBin: *serveBin, Workload: *workload, Seed: *seed,
		Duration: time.Duration(*seconds * float64(time.Second)), Trace: *trace == 1,
		OutDir: *outDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	res.Print(os.Stdout)
	line, err := json.Marshal(res.Summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each one's
// peak memory is its own, and relays their output.
func runAll(ctx context.Context, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	code := 0
	for _, w := range bench.Workloads {
		cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "-workload", w)...)
		// On interrupt, let the child stop its server before it exits.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "netdag-bench:", err)
			return 2
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "netdag-bench:", err)
			return 2
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fmt.Println(sc.Text())
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "netdag-bench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func compare(args []string) int {
	fs := flag.NewFlagSet("netdag-bench compare", flag.ExitOnError)
	bmPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the bounds")
	fs.Parse(args)
	rest := fs.Args()
	split := -1
	for i, a := range rest {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(rest)-1 {
		fmt.Fprintln(os.Stderr, "usage: netdag-bench compare [-benchmark BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	bm, err := bench.LoadBenchmark(*bmPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	load := func(paths []string) ([]*bench.Result, error) {
		var rs []*bench.Result
		for _, p := range paths {
			r, err := bench.LoadResults(p)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r...)
		}
		return rs, nil
	}
	a, err := load(rest[:split])
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	b, err := load(rest[split+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	vs := bench.Compare(bm, a, b)
	bench.PrintVerdicts(os.Stdout, vs)
	code := 0
	for _, v := range vs {
		if v.Verdict == bench.Regressed || v.Verdict == bench.Unresolved {
			code = 1
		}
	}
	return code
}

func expect(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("netdag-bench expect", flag.ExitOnError)
	root := fs.String("root", ".", "repository root")
	fs.Parse(args)
	if err := bench.WriteExpected(ctx, *root); err != nil {
		fmt.Fprintln(os.Stderr, "netdag-bench:", err)
		return 2
	}
	fmt.Println("wrote", strconv.Quote(*root+"/bench/testdata/expected"))
	return 0
}
