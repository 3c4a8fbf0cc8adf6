package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/netdag/netdag/internal/dag"
)

// Slot is one contention-free slot of a communication round: the Glossy
// flood carrying one unique-source message.
type Slot struct {
	Msg      dag.MsgID
	NTX      int   // χ(e)
	Width    int   // payload bytes
	Duration int64 // reserved duration, eq. (3) per-message term
}

// Round is one LWB communication round of the schedule: a beacon flood
// followed by the round's slots. Its reserved duration is the eq. (3)
// sum; during [Start, Start+Duration) no task may execute (eq. 5).
type Round struct {
	Index     int
	Start     int64
	Duration  int64
	BeaconNTX int // χ(r)
	Slots     []Slot
}

// TaskTime is the placement of one task in the timeline.
type TaskTime struct {
	Task   dag.TaskID
	Start  int64
	Finish int64 // Start + WCET; ζ(τ) in the paper's deadline reading
}

// Schedule is a complete NETDAG schedule — the tuple (ζ, χ, l) plus
// derived bookkeeping.
type Schedule struct {
	Mode     Mode
	Rounds   []Round // indexed by round (the assignment l)
	Tasks    map[dag.TaskID]TaskTime
	Assign   []int // l: message ID -> round index
	Makespan int64
	Optimal  bool  // the timing search proved makespan optimality for this (χ, l)
	BusTime  int64 // total time reserved for communication
	// ChiExact reports that χ is proven optimal for l: the χ search
	// minimized the objective's reservation cost (bus time, or radio
	// charge under ObjectiveEnergy) to completion. It is false when that
	// search stopped at its node budget, or the greedy χ optimizer ran
	// (GreedyChi, or more constrained floods than the exact search
	// takes). It qualifies the schedule as Optimal does for placement,
	// but stays out of the exported and hashed forms.
	ChiExact bool
	// EnergyPC is the per-node radio charge of one schedule execution in
	// picocoulombs under the problem's EnergyParams: every flood's
	// on-time charge plus sleep leakage over the rest of the makespan.
	// Exact integer accounting — the scalar the energy objective
	// minimizes — computed for every schedule regardless of objective.
	EnergyPC int64
	Explored int // round assignments examined by the outer search
	// SolverNodes is the branch-and-bound node count of the timing search
	// that produced the winning placement — an observability figure (the
	// netdag-serve metrics export it), not part of the schedule identity:
	// under a shared incumbent bound it varies with worker interleaving.
	SolverNodes int
}

// SlotNTX returns χ(e) for a message.
func (s *Schedule) SlotNTX(m dag.MsgID) (int, bool) {
	for _, r := range s.Rounds {
		for _, sl := range r.Slots {
			if sl.Msg == m {
				return sl.NTX, true
			}
		}
	}
	return 0, false
}

// String renders a human-readable timeline.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s schedule: makespan %d µs, %d rounds, bus %d µs\n",
		s.Mode, s.Makespan, len(s.Rounds), s.BusTime)
	type event struct {
		start, end int64
		label      string
	}
	var evs []event
	for _, r := range s.Rounds {
		label := fmt.Sprintf("round %d (beacon χ=%d", r.Index, r.BeaconNTX)
		for _, sl := range r.Slots {
			label += fmt.Sprintf(", msg%d χ=%d", sl.Msg, sl.NTX)
		}
		label += ")"
		evs = append(evs, event{r.Start, r.Start + r.Duration, label})
	}
	for id, tt := range s.Tasks {
		evs = append(evs, event{tt.Start, tt.Finish, fmt.Sprintf("task %d", id)})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].start != evs[j].start {
			return evs[i].start < evs[j].start
		}
		return evs[i].label < evs[j].label
	})
	for _, e := range evs {
		fmt.Fprintf(&b, "  [%8d, %8d) %s\n", e.start, e.end, e.label)
	}
	return b.String()
}

// Validate re-checks the schedule against the paper's feasibility
// conditions (eq. 4 and 5) for the given application — an independent
// audit of the solver's output used by tests and the validation harness.
func (s *Schedule) Validate(app *dag.Graph) error {
	// (4a) task precedence.
	for _, t := range app.Tasks() {
		tt, ok := s.Tasks[t.ID]
		if !ok {
			return fmt.Errorf("core: task %q missing from schedule", t.Name)
		}
		if tt.Finish-tt.Start != t.WCET {
			return fmt.Errorf("core: task %q scheduled for %d µs, WCET %d", t.Name, tt.Finish-tt.Start, t.WCET)
		}
		for _, succ := range app.Succs(t.ID) {
			st := s.Tasks[succ]
			if st.Start < tt.Finish+1 {
				return fmt.Errorf("core: precedence violated: %q finishes %d, successor starts %d",
					t.Name, tt.Finish, st.Start)
			}
		}
	}
	// (4b) rounds are totally ordered by index.
	for i := 1; i < len(s.Rounds); i++ {
		prev, cur := s.Rounds[i-1], s.Rounds[i]
		if cur.Start < prev.Start+prev.Duration+1 {
			return fmt.Errorf("core: rounds %d and %d out of order or overlapping", i-1, i)
		}
	}
	// (4c) message producers finish before their round; consumers start
	// after it.
	for _, m := range app.Messages() {
		if int(m.ID) >= len(s.Assign) {
			return fmt.Errorf("core: message %d unassigned", m.ID)
		}
		r := s.Rounds[s.Assign[m.ID]]
		prod := s.Tasks[m.Source]
		if r.Start < prod.Finish+1 {
			return fmt.Errorf("core: message %d's round starts %d before producer finishes %d",
				m.ID, r.Start, prod.Finish)
		}
		for _, c := range m.Dests {
			ct := s.Tasks[c]
			if ct.Start < r.Start+r.Duration+1 {
				return fmt.Errorf("core: consumer of message %d starts %d inside/before round ending %d",
					m.ID, ct.Start, r.Start+r.Duration)
			}
		}
	}
	// (5) no task overlaps any round.
	for id, tt := range s.Tasks {
		for _, r := range s.Rounds {
			if tt.Start < r.Start+r.Duration+1 && r.Start < tt.Finish+1 {
				return fmt.Errorf("core: task %d [%d,%d) overlaps round %d [%d,%d)",
					id, tt.Start, tt.Finish, r.Index, r.Start, r.Start+r.Duration)
			}
		}
	}
	// Makespan covers everything.
	for _, tt := range s.Tasks {
		if tt.Finish > s.Makespan {
			return fmt.Errorf("core: task finishing %d exceeds makespan %d", tt.Finish, s.Makespan)
		}
	}
	for _, r := range s.Rounds {
		if r.Start+r.Duration > s.Makespan {
			return fmt.Errorf("core: round %d ends %d past makespan %d", r.Index, r.Start+r.Duration, s.Makespan)
		}
	}
	return nil
}
