// Package smtenc emits NETDAG scheduling problems as SMT-LIB 2 text —
// the encoding the paper hands to Z3. The repository's native solver
// (internal/solver + internal/core) decides these constraints directly;
// the encoder exists so the formal model is inspectable and so users
// with an external SMT solver can cross-check schedules produced here.
//
// The encoding follows §III of the paper:
//
//   - integer start variables for every task and round, plus one
//     makespan variable (ζ);
//   - integer χ variables per message slot and round beacon, bounded by
//     MinNTX..MaxNTX (MinNTX 0 means 1);
//   - precedence and non-overlap as linear constraints over starts, with
//     round durations linear in χ (eq. 3, 4, 5);
//   - the weakly-hard eq. (10) via per-flood miss/window lookup tables
//     encoded as nested ite-terms over χ (the statistic is tabulated, so
//     no ⌊·⌋/⌈·⌉ theory is needed — exactly the abstraction step the
//     paper introduces to stay inside a decidable fragment);
//   - soft constraints (eq. 6) via scaled-integer log-probability
//     tables: Σ logλ(χ(x)) >= log F, with logs scaled by 10^6 and
//     rounded conservatively (toward -inf on the λ side, toward +inf on
//     the target side), so any SMT-model satisfies the true constraint.
//   - minimization of the makespan via (minimize ...), the OptSMT
//     extension Z3 supports.
package smtenc

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/dag"
)

// logScale converts log-probabilities to integers for the soft encoding.
const logScale = 1_000_000

// Encode writes the SMT-LIB 2 encoding of the problem for a FIXED round
// assignment l (the paper's topological partial order): assignment[m] is
// the round index of message m. The outer enumeration over assignments
// is search-level in both the paper and this repository.
func Encode(w io.Writer, p *core.Problem, assignment []int) error {
	if p == nil {
		return errors.New("smtenc: nil problem")
	}
	if err := p.App.Validate(); err != nil {
		return err
	}
	msgs := p.App.Messages()
	if len(assignment) != len(msgs) {
		return fmt.Errorf("smtenc: assignment covers %d messages, app has %d", len(assignment), len(msgs))
	}
	rounds := 0
	for _, r := range assignment {
		if r < 0 {
			return fmt.Errorf("smtenc: negative round in assignment")
		}
		if r+1 > rounds {
			rounds = r + 1
		}
	}
	maxNTX := p.MaxNTX
	if maxNTX == 0 {
		maxNTX = core.DefaultMaxNTX
	}
	minNTX := max(p.MinNTX, 1)

	var b strings.Builder
	b.WriteString("; NETDAG scheduling encoding (Wardega & Li, DATE 2020)\n")
	b.WriteString("(set-logic QF_LIA)\n")

	// Declarations.
	for _, t := range p.App.Tasks() {
		fmt.Fprintf(&b, "(declare-const start_%s Int)\n", sanitize(t.Name))
	}
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(&b, "(declare-const rstart_%d Int)\n", r)
		fmt.Fprintf(&b, "(declare-const chi_beacon_%d Int)\n", r)
	}
	for _, m := range msgs {
		fmt.Fprintf(&b, "(declare-const chi_msg_%d Int)\n", m.ID)
	}
	b.WriteString("(declare-const makespan Int)\n")

	// Domains.
	for _, t := range p.App.Tasks() {
		fmt.Fprintf(&b, "(assert (>= start_%s 0))\n", sanitize(t.Name))
	}
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(&b, "(assert (>= rstart_%d 0))\n", r)
		fmt.Fprintf(&b, "(assert (and (>= chi_beacon_%d %d) (<= chi_beacon_%d %d)))\n", r, minNTX, r, maxNTX)
	}
	for _, m := range msgs {
		fmt.Fprintf(&b, "(assert (and (>= chi_msg_%d %d) (<= chi_msg_%d %d)))\n", m.ID, minNTX, m.ID, maxNTX)
	}

	// Round durations: eq. (3) as a linear term in the round's χs. With
	// duration(χ) = A + (2χ + D − 1 + BHW)(C + D·w) the χ coefficient is
	// 2(C + D·w) and the constant folds the rest.
	durTerm := func(r int) string {
		perHop := func(width int) int64 { return p.Params.C + p.Params.D*int64(width) }
		base := int64(p.Params.A) + (int64(p.Diameter)-1+p.Params.BHW)*perHop(p.Params.BeaconWidth)
		terms := []string{fmt.Sprintf("(* %d chi_beacon_%d)", 2*perHop(p.Params.BeaconWidth), r)}
		total := base
		for _, m := range msgs {
			if assignment[m.ID] != r {
				continue
			}
			total += p.Params.A + (int64(p.Diameter)-1+p.Params.BHW)*perHop(m.Width)
			terms = append(terms, fmt.Sprintf("(* %d chi_msg_%d)", 2*perHop(m.Width), m.ID))
		}
		return fmt.Sprintf("(+ %d %s)", total, strings.Join(terms, " "))
	}

	// (4a) task precedence.
	for _, t := range p.App.Tasks() {
		for _, s := range p.App.Succs(t.ID) {
			fmt.Fprintf(&b, "(assert (> start_%s (+ start_%s %d)))\n",
				sanitize(p.App.Task(s).Name), sanitize(t.Name), t.WCET)
		}
	}
	// (4b) rounds totally ordered.
	for r := 1; r < rounds; r++ {
		fmt.Fprintf(&b, "(assert (> rstart_%d (+ rstart_%d %s)))\n", r, r-1, durTerm(r-1))
	}
	// (4c) producers before the round, consumers after.
	for _, m := range msgs {
		r := assignment[m.ID]
		src := p.App.Task(m.Source)
		fmt.Fprintf(&b, "(assert (> rstart_%d (+ start_%s %d)))\n", r, sanitize(src.Name), src.WCET)
		for _, c := range m.Dests {
			fmt.Fprintf(&b, "(assert (> start_%s (+ rstart_%d %s)))\n",
				sanitize(p.App.Task(c).Name), r, durTerm(r))
		}
	}
	// (5) non-overlap between every task and every round.
	for _, t := range p.App.Tasks() {
		for r := 0; r < rounds; r++ {
			fmt.Fprintf(&b, "(assert (or (> rstart_%d (+ start_%s %d)) (> start_%s (+ rstart_%d %s))))\n",
				r, sanitize(t.Name), t.WCET, sanitize(t.Name), r, durTerm(r))
		}
	}
	// Makespan.
	for _, t := range p.App.Tasks() {
		fmt.Fprintf(&b, "(assert (>= makespan (+ start_%s %d)))\n", sanitize(t.Name), t.WCET)
	}
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(&b, "(assert (>= makespan (+ rstart_%d %s)))\n", r, durTerm(r))
	}
	// Deadlines and releases.
	for id, d := range p.Deadlines {
		t := p.App.Task(id)
		fmt.Fprintf(&b, "(assert (<= (+ start_%s %d) %d))\n", sanitize(t.Name), t.WCET, d)
	}
	for id, rel := range p.ReleaseTimes {
		fmt.Fprintf(&b, "(assert (>= start_%s %d))\n", sanitize(p.App.Task(id).Name), rel)
	}

	// Real-time constraints.
	switch p.Mode {
	case core.Soft:
		if p.SoftStat == nil {
			return core.ErrNoStatistic
		}
		// Tabulate scaled logs, rounded down (conservative).
		logTab := make([]int64, maxNTX)
		for n := 1; n <= maxNTX; n++ {
			lam := p.SoftStat.SuccessProb(n)
			if lam <= 0 {
				logTab[n-1] = math.MinInt32
			} else {
				logTab[n-1] = int64(math.Floor(math.Log(lam) * logScale))
			}
		}
		for _, task := range p.App.Tasks() {
			target, ok := p.SoftCons[task.ID]
			if !ok || target <= 0 {
				continue
			}
			preds := predTerms(p.App, assignment, task.ID)
			if len(preds) == 0 {
				continue
			}
			var sum []string
			for _, pt := range preds {
				sum = append(sum, iteTable(pt, logTab))
			}
			bound := int64(math.Ceil(math.Log(target) * logScale))
			fmt.Fprintf(&b, "(assert (>= (+ %s) %d)) ; eq.6 for %s\n",
				strings.Join(sum, " "), bound, task.Name)
		}
	case core.WeaklyHard:
		if p.WHStat == nil {
			return core.ErrNoStatistic
		}
		missTab := make([]int64, maxNTX)
		winTab := make([]int64, maxNTX)
		for n := 1; n <= maxNTX; n++ {
			c := p.WHStat.MissConstraint(n)
			missTab[n-1] = int64(c.Misses)
			winTab[n-1] = int64(c.Window)
		}
		for _, task := range p.App.Tasks() {
			target, ok := p.WHCons[task.ID]
			if !ok || target.Trivial() {
				continue
			}
			preds := predTerms(p.App, assignment, task.ID)
			if len(preds) == 0 {
				continue
			}
			var missSum []string
			for _, pt := range preds {
				missSum = append(missSum, iteTable(pt, missTab))
				// eq.10 window side: every predecessor window covers the
				// requirement's.
				fmt.Fprintf(&b, "(assert (>= %s %d)) ; eq.10 window for %s\n",
					iteTable(pt, winTab), target.Window, task.Name)
			}
			fmt.Fprintf(&b, "(assert (<= (+ %s) %d)) ; eq.10 misses for %s\n",
				strings.Join(missSum, " "), target.Misses, task.Name)
		}
	default:
		return fmt.Errorf("smtenc: unknown mode %v", p.Mode)
	}

	b.WriteString("(minimize makespan)\n(check-sat)\n(get-objectives)\n(get-model)\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// predTerms returns the χ variable names of pred(τ).
func predTerms(app *dag.Graph, assignment []int, id dag.TaskID) []string {
	var out []string
	roundSeen := map[int]bool{}
	for _, m := range app.MsgAncestors(id) {
		out = append(out, fmt.Sprintf("chi_msg_%d", m))
		r := assignment[m]
		if !roundSeen[r] {
			roundSeen[r] = true
			out = append(out, fmt.Sprintf("chi_beacon_%d", r))
		}
	}
	return out
}

// iteTable encodes table lookup tab[chi-1] as nested ite over the χ
// variable.
func iteTable(chiVar string, tab []int64) string {
	expr := fmt.Sprintf("%d", tab[len(tab)-1])
	for n := len(tab) - 1; n >= 1; n-- {
		expr = fmt.Sprintf("(ite (= %s %d) %d %s)", chiVar, n, tab[n-1], expr)
	}
	return expr
}

func sanitize(name string) string {
	r := strings.NewReplacer("/", "_", "#", "_", "-", "_", " ", "_")
	return r.Replace(name)
}
