package figures

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/netdag/netdag/internal/cartpole"
	"github.com/netdag/netdag/internal/dse"
	"github.com/netdag/netdag/internal/expt"
)

// record holds every result of the paper record.
type record struct {
	tableI     []TableIRow
	bridge     []BridgeRow
	validation *ValidationResult
	fig2       []Fig2Point
	fig3       []cartpole.Cell
	fig4       []dse.QFront
	diameter   []DiameterRow
	a1         []A1Row
	a2         []A2Row
	a3         []A3Row
	a4         []A4Row
	a5         []A5Row
	a6         []A6Row
}

// fixed fills the tables that run no scheduler, so every worker count
// shares them.
func (r *record) fixed() error {
	var err error
	if r.fig3, err = Fig3(); err != nil {
		return fmt.Errorf("figures: fig3: %w", err)
	}
	r.bridge, r.a1 = TableIBridge(), AblationA1()
	return nil
}

// solve fills the tables that run the scheduler, the only ones a worker
// count reaches.
func (r *record) solve(workers int) error {
	steps := []struct {
		name string
		run  func() error
	}{
		{"table1", func() (err error) { r.tableI, err = TableI(workers); return }},
		{"validation", func() (err error) {
			r.validation, err = Validation(workers, validationRuns, validationSeed)
			return
		}},
		{"fig2", func() (err error) { r.fig2, err = Fig2(workers); return }},
		{"fig4", func() (err error) { r.fig4, err = Fig4Pareto(workers); return }},
		{"diameter", func() (err error) { r.diameter, err = DiameterSweep(workers); return }},
		{"ablation_a2", func() (err error) { r.a2, err = AblationA2(workers); return }},
		{"ablation_a3", func() (err error) { r.a3, err = AblationA3(workers, r.fig2); return }},
		{"ablation_a4", func() (err error) { r.a4, err = AblationA4(workers, r.fig2); return }},
		{"ablation_a5", func() (err error) { r.a5, err = AblationA5(workers, a5Runs, a5Seed); return }},
		{"ablation_a6", func() (err error) { r.a6, err = AblationA6(workers); return }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("figures: %s: %w", s.name, err)
		}
	}
	return nil
}

// files renders the record as CSV contents by file name. Every file
// name, column and precision is set here, and EXPERIMENTS.md quotes each
// cell at the precision written.
func (r *record) files() map[string][]byte {
	out := make(map[string][]byte)
	add := func(name string, tab *expt.Table) {
		var b bytes.Buffer
		_ = tab.WriteCSV(&b) // a bytes.Buffer write cannot fail
		out[name] = b.Bytes()
	}

	tab := expt.NewTable("", "paradigm", "guarantee", "makespan_us", "bus_us")
	for _, x := range r.tableI {
		tab.Addf("%s\t%s\t%d\t%d", x.Paradigm, x.Guarantee, x.Makespan, x.BusTime)
	}
	add("table1.csv", tab)

	tab = expt.NewTable("", "horizon", "probability")
	for _, x := range r.bridge {
		tab.Addf("%d\t%.3f", x.Horizon, x.Probability)
	}
	add("table1_bridge.csv", tab)

	tab = expt.NewTable("", "task", "target", "scheduled", "statistic", "pass")
	for _, x := range r.validation.Soft {
		tab.Addf("%s\t%.4f\t%.4f\t%.4f\t%v", x.Name, x.Target, x.Scheduled, x.Statistic, x.Pass)
	}
	add("validation_soft.csv", tab)

	tab = expt.NewTable("", "task", "requirement", "guarantee", "worst_misses", "pass")
	for _, x := range r.validation.WH {
		tab.Addf("%s\t%v\t%v\t%d\t%v", x.Name, x.Requirement, x.Guarantee, x.WorstMisses, x.Pass)
	}
	add("validation_wh.csv", tab)

	tab = expt.NewTable("", "level", "constrained_actuators", "makespan_us")
	for _, x := range r.fig2 {
		tab.Addf("%v\t%d\t%d", x.Level, x.Constrained, x.Makespan)
	}
	add("fig2.csv", tab)

	tab = expt.NewTable("", "window", "misses", "mean_steps")
	for _, x := range r.fig3 {
		tab.Addf("%d\t%d\t%.1f", x.Window, x.Misses, x.MeanSteps)
	}
	add("fig3.csv", tab)

	// An infeasible power setting has no schedule, so its measured cells
	// stay empty.
	tab = expt.NewTable("", "q", "worst_fss", "diameter", "usable", "latency_us", "charge_uc")
	fronts := expt.NewTable("", "q", "diameter", "makespan_us", "energy_pc", "charge_uc", "slack")
	for _, x := range r.fig4 {
		p := x.Point
		if !p.Feasible {
			tab.Addf("%.1f\t%.3f\t%d\t%v\t\t", p.Q, p.WorstFSS, p.Diameter, p.Usable)
			fronts.Addf("%.1f\t%d\t\t\t\t", p.Q, p.Diameter)
			continue
		}
		tab.Addf("%.1f\t%.3f\t%d\t%v\t%d\t%.3f", p.Q, p.WorstFSS, p.Diameter, p.Usable, p.Latency, p.RadioChargeUC)
		for _, f := range x.Front {
			fronts.Addf("%.1f\t%d\t%d\t%d\t%.3f\t%.4f", p.Q, p.Diameter, f.LatencyUS, f.EnergyPC, f.ChargeUC, f.Slack)
		}
	}
	add("fig4.csv", tab)
	add("fig4_pareto.csv", fronts)

	tab = expt.NewTable("", "diameter", "makespan_us", "bus_us")
	for _, x := range r.diameter {
		tab.Addf("%d\t%d\t%d", x.Diameter, x.Makespan, x.BusTime)
	}
	add("diameter.csv", tab)

	tab = expt.NewTable("", "x", "y", "oplus_misses", "exact_misses")
	for _, x := range r.a1 {
		tab.Addf("%v\t%v\t%d\t%d", x.X, x.Y, x.OplusMisses, x.ExactMisses)
	}
	add("ablation_a1.csv", tab)

	tab = expt.NewTable("", "target", "netdag_bus_us", "baseline_bus_us", "netdag_span_us", "baseline_span_us", "bus_saving_pct")
	for _, x := range r.a2 {
		saving := 100 * float64(x.BaselineBus-x.NETDAGBus) / float64(x.BaselineBus)
		tab.Addf("%.2f\t%d\t%d\t%d\t%d\t%.1f", x.Target, x.NETDAGBus, x.BaselineBus, x.NETDAGSpan, x.BaselineSpan, saving)
	}
	add("ablation_a2.csv", tab)

	tab = expt.NewTable("", "instance", "exact_span_us", "greedy_span_us", "gap_pct")
	for _, x := range r.a3 {
		gap := 100 * float64(x.GreedySpan-x.ExactSpan) / float64(x.ExactSpan)
		tab.Addf("%s\t%d\t%d\t%.2f", x.Instance, x.ExactSpan, x.GreedySpan, gap)
	}
	add("ablation_a3.csv", tab)

	tab = expt.NewTable("", "level", "exact_bus_us", "greedy_bus_us")
	for _, x := range r.a4 {
		tab.Addf("%v\t%d\t%d", x.Level, x.ExactBus, x.GreedyBus)
	}
	add("ablation_a4.csv", tab)

	tab = expt.NewTable("", "guard_us", "hit_rate", "beacon_capture", "desync_rate")
	for _, x := range r.a5 {
		guard := "abstract"
		if x.GuardUS >= 0 {
			guard = fmt.Sprintf("%.0f", x.GuardUS)
		}
		tab.Addf("%s\t%.3f\t%.3f\t%.3f", guard, x.HitRate, x.BeaconRate, x.DesyncRate)
	}
	add("ablation_a5.csv", tab)

	tab = expt.NewTable("", "stack", "design_rate", "mutated_rate")
	for _, x := range r.a6 {
		tab.Addf("%s\t%.3f\t%.3f", x.Stack, x.DesignRate, x.MutatedRate)
	}
	add("ablation_a6.csv", tab)
	return out
}

// WriteRecord computes the paper record and writes its CSV files into
// dir. Workers is the round-assignment search worker count
// (core.Problem.Workers: 0 = GOMAXPROCS, 1 = sequential); it changes no
// byte of the record.
func WriteRecord(dir string, workers int) error {
	r := &record{}
	if err := r.fixed(); err != nil {
		return err
	}
	if err := r.solve(workers); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range r.files() {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
