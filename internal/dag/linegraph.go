package dag

import (
	"context"
	"encoding/binary"
	"fmt"
)

// LineGraph is L(G_A) restricted to E*: its vertices are the
// unique-source messages and there is an edge m1 -> m2 whenever some
// consumer of m1 is the source of m2 — message m2's payload can depend on
// m1's, so m1 must travel in an earlier communication round. A
// topological partial order of this graph (paper eq. 2) is exactly an
// admissible assignment l of messages to rounds.
type LineGraph struct {
	n      int
	succ   [][]MsgID
	pred   [][]MsgID
	depth  []int // longest chain of predecessors, 0-based
	height []int // longest chain of successors, 0-based
}

// NewLineGraph builds the line graph of g over E*. The application graph
// must be acyclic (call g.Validate first); the line graph of a DAG is a
// DAG.
func NewLineGraph(g *Graph) (*LineGraph, error) {
	if _, err := g.TopoOrder(); err != nil {
		return nil, fmt.Errorf("dag: line graph of cyclic application: %w", err)
	}
	n := g.NumMessages()
	lg := &LineGraph{
		n:      n,
		succ:   make([][]MsgID, n),
		pred:   make([][]MsgID, n),
		depth:  make([]int, n),
		height: make([]int, n),
	}
	for _, m := range g.Messages() {
		for _, dst := range m.Dests {
			if next, ok := g.MessageOf(dst); ok {
				lg.succ[m.ID] = append(lg.succ[m.ID], next.ID)
				lg.pred[next.ID] = append(lg.pred[next.ID], m.ID)
			}
		}
	}
	// Depths via topological order of the application guarantee acyclic
	// processing: messages inherit order from their source tasks.
	order, _ := g.TopoOrder()
	for _, tid := range order {
		m, ok := g.MessageOf(tid)
		if !ok {
			continue
		}
		d := 0
		for _, p := range lg.pred[m.ID] {
			if lg.depth[p]+1 > d {
				d = lg.depth[p] + 1
			}
		}
		lg.depth[m.ID] = d
	}
	// Heights in reverse: a message's successors are emitted by its
	// consumers, which come later in the order.
	for i := len(order) - 1; i >= 0; i-- {
		m, ok := g.MessageOf(order[i])
		if !ok {
			continue
		}
		for _, s := range lg.succ[m.ID] {
			if lg.height[s]+1 > lg.height[m.ID] {
				lg.height[m.ID] = lg.height[s] + 1
			}
		}
	}
	return lg, nil
}

// NumMessages returns the number of vertices (|E*|).
func (lg *LineGraph) NumMessages() int { return lg.n }

// Succs returns the direct successors of m (copy).
func (lg *LineGraph) Succs(m MsgID) []MsgID { return append([]MsgID(nil), lg.succ[m]...) }

// Preds returns the direct predecessors of m (copy).
func (lg *LineGraph) Preds(m MsgID) []MsgID { return append([]MsgID(nil), lg.pred[m]...) }

// Depth returns the longest predecessor chain length of m; messages with
// no predecessors have depth 0. Depth is a lower bound on the round index
// a message can be assigned to.
func (lg *LineGraph) Depth(m MsgID) int { return lg.depth[m] }

// MinRounds returns the minimum number of communication rounds any
// admissible assignment needs: one more than the maximum depth (or zero
// for message-free applications).
func (lg *LineGraph) MinRounds() int {
	if lg.n == 0 {
		return 0
	}
	max := 0
	for _, d := range lg.depth {
		if d > max {
			max = d
		}
	}
	return max + 1
}

// ValidAssignment reports whether l (indexed by MsgID) is a topological
// partial order of the line graph: every edge m1 -> m2 has
// l[m1] < l[m2], and every entry is non-negative.
func (lg *LineGraph) ValidAssignment(l []int) bool {
	if len(l) != lg.n {
		return false
	}
	for _, r := range l {
		if r < 0 {
			return false
		}
	}
	for m := 0; m < lg.n; m++ {
		for _, s := range lg.succ[m] {
			if l[m] >= l[s] {
				return false
			}
		}
	}
	return true
}

// EnumerateAssignments calls fn with every admissible assignment of
// messages to rounds 0..maxRounds-1 that uses a prefix of the round
// indices with no empty round in between (canonical form: the set of used
// round indices is {0, 1, ..., r-1} for some r). Assignments come in
// tiers of ascending round count r, and in a fixed order within a tier.
// They are passed in a reused buffer; fn must copy if it retains the
// slice. Enumeration stops early when fn returns false. The total number
// of assignments grows quickly with |E*| and maxRounds; callers bound
// maxRounds.
func (lg *LineGraph) EnumerateAssignments(maxRounds int, fn func(l []int) bool) {
	lg.enumerate(maxRounds, fn)
}

// enumerate is EnumerateAssignments. It returns the number of recursive
// steps the walk took, the deterministic work count its tests gate.
//
// Message m is never placed above round rounds-1-height(m): its longest
// successor chain needs that many later rounds, so a branch above the cap
// holds no complete assignment, and cutting it leaves the emitted
// sequence unchanged. A message's lowest round, one past its latest
// predecessor's, is always within its cap, because every predecessor is
// taller.
func (lg *LineGraph) enumerate(maxRounds int, fn func(l []int) bool) (steps int) {
	if lg.n == 0 {
		fn(nil)
		return 1
	}
	if maxRounds < lg.MinRounds() {
		return 0
	}
	order := lg.order()
	l := make([]int, lg.n)
	counts := make([]int, maxRounds) // messages per round, for surjectivity
	stopped := false
	for rounds := lg.MinRounds(); rounds <= maxRounds && !stopped; rounds++ {
		var rec func(idx, empty int)
		rec = func(idx, empty int) {
			steps++
			if stopped {
				return
			}
			if empty > len(order)-idx {
				return // not enough messages left to fill every round
			}
			if idx == len(order) {
				if !fn(l) {
					stopped = true
				}
				return
			}
			m := order[idx]
			lo := 0
			for _, p := range lg.pred[m] {
				if l[p]+1 > lo {
					lo = l[p] + 1
				}
			}
			for r := lo; r < rounds-lg.height[m]; r++ {
				l[m] = r
				counts[r]++
				e := empty
				if counts[r] == 1 {
					e--
				}
				rec(idx+1, e)
				counts[r]--
				if stopped {
					return
				}
			}
		}
		rec(0, rounds)
	}
	return steps
}

// order returns the messages in the order the enumerator places them,
// by depth, then ID: compatible with line-graph precedence, so each
// message's predecessors are already placed when it is considered.
func (lg *LineGraph) order() []MsgID {
	order := make([]MsgID, lg.n)
	for i := range order {
		order[i] = MsgID(i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && lg.less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

func (lg *LineGraph) less(a, b MsgID) bool {
	if lg.depth[a] != lg.depth[b] {
		return lg.depth[a] < lg.depth[b]
	}
	return a < b
}

// CountAssignments returns how many assignments
// EnumerateAssignments(maxRounds, ·) emits, without visiting each one: 1
// for a message-free graph at any budget, 0 below MinRounds. On graphs
// with many unordered messages a count can take as long as the walk, so
// it polls ctx and returns ctx.Err() once the context expires.
func (lg *LineGraph) CountAssignments(ctx context.Context, maxRounds int) (int, error) {
	n, _, err := lg.count(ctx, maxRounds, maxCountMemo)
	return n, err
}

const (
	// countPoll is how many recursive steps count takes between polls of
	// its context.
	countPoll = 1024
	// maxCountMemo caps CountAssignments' memo, so its memory stays
	// bounded on graphs with exponentially many states. Past the cap the
	// count is still exact, only slower: at worst it walks like enumerate.
	maxCountMemo = 1 << 16
)

// count is CountAssignments with a memo of at most memoCap entries. It
// also returns the number of recursive steps it took, the work count its
// tests gate.
//
// It walks the tiers and places the messages as enumerate does, but
// memoizes how many ways the messages from position idx on can complete
// the tier. That number depends only on which of the tier's rounds are
// still empty and on the lowest round each unplaced message can take
// given the placed ones, so those make the memo key. A prefix whose empty
// rounds the unplaced messages cannot fill, one message per round, ends
// the branch at once. Every memoized value counts the completions of a
// prefix the walk reached, so no partial sum exceeds the total.
func (lg *LineGraph) count(ctx context.Context, maxRounds, memoCap int) (total, steps int, err error) {
	if lg.n == 0 {
		return 1, 1, nil
	}
	order := lg.order()
	// l holds the rounds of the placed messages and, past the walk's
	// position, the lowest rounds of the unplaced ones.
	l := make([]int, lg.n)
	hi := min(maxRounds, lg.n) // a tier with more rounds than messages is empty
	counts := make([]int, max(hi, 0))
	reach := make([]int, max(hi, 0)) // unplaced messages by lowest round
	memo := make(map[string]int)
	var key []byte
	for rounds := lg.MinRounds(); rounds <= hi && err == nil; rounds++ {
		clear(memo)
		var rec func(idx int) int
		rec = func(idx int) int {
			steps++
			if steps%countPoll == 0 && err == nil {
				err = ctx.Err()
			}
			if err != nil {
				return 0
			}
			key = binary.AppendUvarint(key[:0], uint64(idx))
			clear(reach[:rounds])
			for _, u := range order[idx:] { // each after its predecessors
				lo := 0
				for _, p := range lg.pred[u] {
					lo = max(lo, l[p]+1)
				}
				l[u] = lo
				reach[lo]++
				key = binary.AppendUvarint(key, uint64(lo))
			}
			// free counts the unplaced messages that can reach round r,
			// less the empty rounds up to r.
			free := 0
			for r, c := range counts[:rounds] {
				free += reach[r]
				if c == 0 {
					if free--; free < 0 {
						return 0
					}
				}
				key = append(key, byte(min(c, 1)))
			}
			if idx == len(order) {
				return 1
			}
			if n, ok := memo[string(key)]; ok {
				return n
			}
			k := string(key)
			m := order[idx]
			n := 0
			for r := l[m]; r < rounds-lg.height[m]; r++ {
				l[m] = r
				counts[r]++
				n += rec(idx + 1)
				counts[r]--
			}
			if len(memo) < memoCap {
				memo[k] = n
			}
			return n
		}
		total += rec(0)
	}
	if err != nil {
		return 0, steps, err
	}
	return total, steps, nil
}

// EarliestAssignment returns the canonical ASAP assignment l[m] =
// Depth(m), which uses MinRounds rounds and is always admissible.
func (lg *LineGraph) EarliestAssignment() []int {
	l := make([]int, lg.n)
	copy(l, lg.depth)
	return l
}
