// Command netdag-dse regenerates fig. 4 of the paper: the §IV-D
// transmission-power design-space exploration — per power setting Q, the
// profiled worst-case mean filtered signal strength, the network
// diameter, and the end-to-end latency NETDAG reports for A_MIMO under
// the eq. (15) statistic.
//
// With -objective pareto the sweep computes the full energy/latency
// Pareto front of every feasible power setting instead of only its
// minimal-latency point: one row per non-dominated (makespan, charge)
// pair, with the guarantee slack each tradeoff leaves on the soft
// constraints. -csv writes the active table as a CSV figure artifact.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/netdag/netdag/internal/dse"
	"github.com/netdag/netdag/internal/expt"
	"github.com/netdag/netdag/internal/figures"
)

func main() {
	deadline := flag.Int64("deadline", 0, "if positive, report the minimum power meeting this latency (µs)")
	workers := flag.Int("workers", 0, "parallel round-assignment search workers (0 = GOMAXPROCS, 1 = sequential)")
	objective := flag.String("objective", "makespan", `exploration objective: "makespan" (fig. 4 rows) or "pareto" (full energy/latency front per power setting)`)
	csvPath := flag.String("csv", "", "also write the table as a CSV figure artifact to this path")
	flag.Parse()
	figures.Workers = *workers

	var tab *expt.Table
	var points []dse.Point
	switch *objective {
	case "", "makespan":
		pts, err := figures.Fig4()
		if err != nil {
			fatal(err)
		}
		points = pts
		tab = expt.NewTable("Fig. 4 — transmission-power design-space exploration",
			"Q", "worst mean fSS", "diameter", "usable", "latency (µs)")
		for _, p := range points {
			lat := "-"
			if p.Feasible {
				lat = fmt.Sprintf("%d", p.Latency)
			}
			tab.Addf("%.1f\t%.3f\t%d\t%v\t%s", p.Q, p.WorstFSS, p.Diameter, p.Usable, lat)
		}
	case "pareto":
		fronts, err := figures.Fig4Pareto()
		if err != nil {
			fatal(err)
		}
		tab = expt.NewTable("Fig. 4 + energy axis — per-setting energy/latency Pareto fronts",
			"Q", "diameter", "usable", "makespan (µs)", "energy (pC)", "charge (µC)", "slack")
		for _, qf := range fronts {
			points = append(points, qf.Point)
			if !qf.Point.Feasible {
				tab.Addf("%.1f\t%d\t%v\t-\t-\t-\t-",
					qf.Point.Q, qf.Point.Diameter, qf.Point.Usable)
				continue
			}
			for _, fp := range qf.Front {
				slack := "-"
				if !math.IsInf(fp.Slack, 1) {
					slack = fmt.Sprintf("%.4f", fp.Slack)
				}
				tab.Addf("%.1f\t%d\t%v\t%d\t%d\t%.3f\t%s",
					qf.Point.Q, qf.Point.Diameter, qf.Point.Usable,
					fp.LatencyUS, fp.EnergyPC, fp.ChargeUC, slack)
			}
		}
	default:
		fatal(fmt.Errorf("unknown objective %q (makespan or pareto)", *objective))
	}
	fmt.Print(tab.String())
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := tab.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *csvPath)
	}

	if *deadline > 0 {
		best, ok := dse.MinPowerForLatency(points, *deadline)
		if !ok {
			fmt.Printf("no power setting meets a %d µs latency deadline\n", *deadline)
			return
		}
		fmt.Printf("minimum power meeting %d µs: Q=%.1f (latency %d µs)\n", *deadline, best.Q, best.Latency)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "netdag-dse:", err)
	os.Exit(1)
}
