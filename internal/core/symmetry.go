package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/netdag/netdag/internal/dag"
)

// Symmetry breaking over interchangeable floods (cf. TTW's symmetry
// constraints, Jacob et al., DATE 2018): two message tuples are
// interchangeable when swapping their round assignments yields a
// scheduling instance isomorphic to the original — same χ optimization,
// same placement optimum. The enumeration then only needs one
// representative per orbit: the lexicographic enumeration emits the
// member with ascending round vectors (in MsgID order) first, so any
// assignment where a class's round vectors descend is a later,
// never-better duplicate.
//
// A class member is an ordered tuple of messages: those of one chain of
// tasks, built by chainTuple. The flood interchange is the one-task
// chain: messages of equal width with identical destination sets and
// mutually indistinguishable pure producer sources. The multi-rate
// generalization takes longer chains from Problem.InstanceChains — the
// phase-ordered instances of one base task emitted by multirate.Unroll —
// so the r! orderings of r identical job chains (three cameras at rate
// 2, say) collapse to one.
//
// Interchangeability is structural and verified here, never assumed from
// the metadata. For a chain tuple every member chain must be pure — the
// first instance has no predecessors, each later instance's only
// predecessor is the previous one via an order-only serialization edge,
// and each instance's successors are exactly its message destinations
// plus the next instance — and phase-aligned across the class: equal
// WCET, equal width, literally identical destination task sets, equal
// task-level constraints, no deadlines or release times, with the same
// phases emitting. Under these conditions the χ instance of a swapped
// image is literally identical to the original's: all members feed the
// same consumers, so every constraint's flood set is unchanged by
// permuting the members' rounds, and predFloods renders each set in a
// canonical order (messages by MsgID, then beacons by round) independent
// of which member carries which round. Identical instances mean the χ
// solver — whose tie-breaking depends on flood-list positions — returns
// the same vector for both, and they share one entry of the per-solve χ
// instance memo (Problem.chiMemo), whose key is each constraint's set of
// rounds (Problem.chiKey). The placement instances are isomorphic under
// relabeling the chains *only if* the solved χ values coincide per phase
// across members (otherwise the images put different slot durations into
// the rounds); the skip therefore verifies per-phase χ equality at
// runtime and explores the image normally when the solver broke the tie
// asymmetrically. This keeps the pruning unconditionally exact.
//
// Soundness of "earlier": class tuple messages all sit at line-graph
// depth 0 (their sources consume nothing — order-only serialization
// edges are invisible to the line graph), so their enumeration positions
// are in MsgID order. Construction additionally requires MsgID-ordering
// consistency — within a member, phase k's MsgID precedes phase k+1's;
// across adjacent members, every phase-k MsgID of the earlier member
// precedes the later member's — and drops any class violating it. Under
// consistency, swapping a descending adjacent pair of member vectors
// first differs from the original at the earlier member's first
// differing phase, where the image's round is strictly smaller: the
// image is enumerated earlier. By induction down the lexicographic
// order, an undominated equal-makespan representative is always
// enumerated earlier, so it wins the (makespan, idx) total order.
//
// Only used when the placement is exact (the duplicate-makespan argument
// relies on the placement optimum, which the greedy dispatcher does not
// compute); Problem.NoSymmetry turns it off for ablation.

// interchangeClasses groups message tuples into interchange classes
// (size >= 2, members in ascending MsgID-tuple order). Each class is a
// slice of members; each member a phase-ordered MsgID tuple.
func (p *Problem) interchangeClasses() [][][]dag.MsgID {
	groups := make(map[string][][]dag.MsgID)
	// Chain tuples from the multi-rate instance metadata. Sources claimed
	// by a qualifying chain are excluded from the singleton pass below so
	// no message lands in two classes.
	claimed := make(map[dag.MsgID]bool)
	for _, chain := range p.InstanceChains {
		key, msgs, ok := p.chainTuple(chain)
		if !ok {
			continue
		}
		groups[key] = append(groups[key], msgs)
		for _, m := range msgs {
			claimed[m] = true
		}
	}
	// Singleton tuples: every other message is the one-task chain of its
	// source.
	for _, m := range p.App.Messages() {
		if claimed[m.ID] {
			continue
		}
		if key, msgs, ok := p.chainTuple([]dag.TaskID{m.Source}); ok {
			groups[key] = append(groups[key], msgs)
		}
	}
	keys := make([]string, 0, len(groups))
	for k, ms := range groups {
		if len(ms) < 2 {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	classes := make([][][]dag.MsgID, 0, len(keys))
	for _, k := range keys {
		ms := groups[k]
		sort.Slice(ms, func(i, j int) bool { return tupleLess(ms[i], ms[j]) })
		if !orderingConsistent(ms) {
			continue // cannot prove "earlier"; skip the class, stay exact
		}
		classes = append(classes, ms)
	}
	return classes
}

// chainTuple validates one instance chain against the structural
// interchange conditions and renders its per-phase signature key plus
// its phase-ordered message tuple. ok is false when the chain does not
// qualify (wrong shape, constrained timing, nothing emitted) — the
// metadata is advisory, never trusted. A one-task chain is a singleton
// tuple: a pure producer whose only successors are its message's
// destinations, with no timing constraints of its own.
func (p *Problem) chainTuple(chain []dag.TaskID) (string, []dag.MsgID, bool) {
	app := p.App
	var key strings.Builder
	var msgs []dag.MsgID
	fmt.Fprintf(&key, "chain%d", len(chain))
	for k, tid := range chain {
		if int(tid) < 0 || int(tid) >= app.NumTasks() {
			return "", nil, false
		}
		pr := app.Preds(tid)
		if k == 0 {
			if len(pr) != 0 {
				return "", nil, false
			}
		} else if len(pr) != 1 || pr[0] != chain[k-1] || !app.OrderOnly(chain[k-1], tid) {
			return "", nil, false
		}
		if _, ok := p.Deadlines[tid]; ok {
			return "", nil, false
		}
		if _, ok := p.ReleaseTimes[tid]; ok {
			return "", nil, false
		}
		m, emits := app.MessageOf(tid)
		want := 0
		if k < len(chain)-1 {
			want++
		}
		if emits {
			want += len(m.Dests)
		}
		if len(app.Succs(tid)) != want {
			return "", nil, false
		}
		soft, hasSoft := p.SoftCons[tid]
		whc, hasWH := p.WHCons[tid]
		fmt.Fprintf(&key, "|p%d:c%d,s%v,%t,h%v,%t", k, app.Task(tid).WCET, soft, hasSoft, whc, hasWH)
		if emits {
			dests := make([]int, len(m.Dests))
			for i, d := range m.Dests {
				dests[i] = int(d)
			}
			sort.Ints(dests)
			fmt.Fprintf(&key, ",w%d,d%v", m.Width, dests)
			msgs = append(msgs, m.ID)
		} else {
			key.WriteString(",noemit")
		}
	}
	if len(msgs) == 0 {
		return "", nil, false
	}
	return key.String(), msgs, true
}

// tupleLess is lexicographic MsgID order over equal-length tuples.
func tupleLess(a, b []dag.MsgID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// orderingConsistent verifies the MsgID-ordering precondition of the
// "enumerated earlier" argument: within every member the phase MsgIDs
// ascend, and across members (already tuple-sorted) every phase's MsgID
// strictly ascends member to member.
func orderingConsistent(members [][]dag.MsgID) bool {
	for i, m := range members {
		for k := 1; k < len(m); k++ {
			if m[k-1] >= m[k] {
				return false
			}
		}
		if i == 0 {
			continue
		}
		prev := members[i-1]
		if len(prev) != len(m) {
			return false
		}
		for k := range m {
			if prev[k] >= m[k] {
				return false
			}
		}
	}
	return true
}

// dominatedAssignment reports whether assign is a provable duplicate of
// an earlier-enumerated image: some interchange class's member round
// vectors descend (an adjacent pair compares lexicographically
// downward) and the solved χ values of the class's members coincide per
// phase. Swapping the descending pair's vectors yields a
// lexicographically earlier assignment (see the ordering-consistency
// argument above) whose χ instance is literally identical and whose
// placement instance is isomorphic — identical round durations, chains
// relabeled — so its exact optimum is the same makespan. A class whose χ
// tie the solver broke asymmetrically never triggers a skip: those
// images put different slot durations into the rounds and must be
// explored.
func (p *Problem) dominatedAssignment(assign []int, chi []int) bool {
	for _, cls := range p.iclasses {
		descends := false
		for i := 1; i < len(cls); i++ {
			a, b := cls[i-1], cls[i]
			for k := range a {
				if assign[a[k]] != assign[b[k]] {
					descends = assign[a[k]] > assign[b[k]]
					break
				}
			}
			if descends {
				break
			}
		}
		if !descends {
			continue
		}
		equal := true
		for i := 1; i < len(cls) && equal; i++ {
			a, b := cls[i-1], cls[i]
			for k := range a {
				if chi[a[k]] != chi[b[k]] {
					equal = false
					break
				}
			}
		}
		if equal {
			return true
		}
	}
	return false
}
