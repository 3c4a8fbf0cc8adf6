package core

import (
	"errors"
	"sync"

	"github.com/netdag/netdag/internal/solver"
)

// This file is the outer search over round assignments, one driver for
// every worker count. The calling goroutine is the producer: it walks the
// enumeration in its canonical deterministic order, numbers each
// assignment (its enumeration index), and skips what cannot win before
// copying anything:
//
//   - the tier cut: assignments come in tiers of ascending round count,
//     and once the cheapest possible member of a tier cannot beat the
//     incumbent, nothing in that tier or a later one can (see tierCut),
//     so the walk stops there and the rest of the enumeration is only
//     counted (dag.LineGraph.CountAssignments), not walked;
//   - the per-assignment admissibility bound (assignBound).
//
// With Workers = 1 the producer evaluates each survivor inline. Otherwise
// it copies survivors into batches for a pool of workers, which re-check
// the bound against the latest incumbent before the per-assignment
// (χ, ζ) search. Every evaluated schedule is published to one atomic
// incumbent that feeds both prune points — the lower bounds and the
// timing search's MakespanBound.
//
// Determinism: the reduction is a total order — the objective's scalar
// first (energy under ObjectiveEnergy), then makespan, then enumeration
// index (see Problem.betterCand) — and an assignment is only ever skipped
// when it provably cannot win under that order, so the final winner is
// independent of worker interleaving and identical to the sequential
// search's result. Cut assignments still count in Explored, so it is the
// full enumeration size whenever the search completes, and no barrier at
// tier boundaries is needed: when the producer sees the incumbent changes
// only how much work the search does. Once the cut fires the walk stops,
// and the count of the rest polls the context only once per 1,024 steps:
// a deadline after the cut interrupts only a count that runs long, on
// graphs with many unordered messages. Explored then stays the walked
// count, and the schedule is not claimed optimal. The per-assignment
// timing result is also incumbent-independent: a bounded search that
// completes is exact within the bound (hence equal to the unbounded
// optimum whenever one exists under the bound), and a bounded search the
// node budget truncates is redone without the incumbent-derived bound
// (see place).

// assignmentBatchSize is how many assignments the producer hands over
// per channel send. Assignments are cheap to enumerate and expensive to
// schedule, so small batches keep workers busy without starving the
// reduction of parallelism on small instances.
const assignmentBatchSize = 8

// incumbentRec is the shared best-known outcome: the best scalarized
// cost published so far — (energy, makespan) under the objective's total
// order — and the enumeration index of the assignment that achieved it.
// Under ObjectiveMakespan the energy field is ignored by the comparator.
type incumbentRec struct {
	energy   int64
	makespan int64
	idx      int
}

// job is one round assignment tagged with its enumeration index.
type job struct {
	idx    int
	assign []int
}

// searchOut is one consumer's share of the search: its best candidate,
// its first error in enumeration order, and the scratch its assignments
// are evaluated on.
type searchOut struct {
	best     *candidate
	firstErr *searchErr
	sc       scratch
}

// run evaluates the round assignments on `workers` consumers and reduces
// their local bests under the objective's total order. It returns the
// winner and the first error in enumeration order, and leaves the
// walked and explored counts in s.
func (s *search) run(workers int) (*candidate, *searchErr) {
	outs := make([]searchOut, max(workers, 1))
	var jobs chan []job
	var wg sync.WaitGroup
	if workers > 1 {
		jobs = make(chan []job, workers)
		for w := range outs {
			wg.Add(1)
			go func(out *searchOut) {
				defer wg.Done()
				for batch := range jobs {
					if s.ctx.Err() != nil {
						s.interrupted.Store(true)
						return // canceled: stop scheduling, keep the local best
					}
					for _, j := range batch {
						if prune, bound := s.assignBound(j.assign, j.idx, s.inc.Load()); !prune {
							s.evaluate(out, j.assign, j.idx, bound)
						}
					}
				}
			}(&outs[w])
		}
	}
	// send hands a batch to the pool unless the context expires first.
	send := func(batch []job) bool {
		select {
		case jobs <- batch:
			return true
		case <-s.ctx.Done():
			s.interrupted.Store(true)
			return false
		}
	}

	var batch []job
	cut := false
	s.lg.EnumerateAssignments(s.maxRounds, func(l []int) bool {
		if s.ctx.Err() != nil {
			s.interrupted.Store(true)
			return false // canceled: stop enumerating, keep the incumbent
		}
		idx := s.walked
		s.walked++
		inc := s.inc.Load()
		if s.tierCut(roundCount(l), idx, inc) {
			cut = true
			return false // the rest of the enumeration loses: count it, don't walk it
		}
		prune, bound := s.assignBound(l, idx, inc)
		if prune {
			return true
		}
		if jobs == nil {
			// The schedule copies the assignment, so the enumerator's
			// buffer can be evaluated in place.
			s.evaluate(&outs[0], l, idx, bound)
			return true
		}
		if batch == nil {
			batch = make([]job, 0, assignmentBatchSize)
		}
		batch = append(batch, job{idx: idx, assign: append([]int(nil), l...)})
		if len(batch) < assignmentBatchSize {
			return true
		}
		full := batch
		batch = nil
		return send(full)
	})
	if jobs != nil {
		if len(batch) > 0 {
			send(batch)
		}
		close(jobs)
	}
	s.explored = s.walked
	if cut { // count while the workers drain
		if n, err := s.lg.CountAssignments(s.ctx, s.maxRounds); err != nil {
			s.interrupted.Store(true) // Explored stays the walked count
		} else {
			s.explored = n
		}
	}
	wg.Wait()

	var best *candidate
	var firstErr *searchErr
	for i := range outs {
		o := &outs[i]
		if o.best != nil && (best == nil || s.p.betterCand(
			o.best.sched.EnergyPC, o.best.sched.Makespan, o.best.idx,
			best.sched.EnergyPC, best.sched.Makespan, best.idx)) {
			best = o.best
		}
		if o.firstErr != nil && (firstErr == nil || o.firstErr.idx < firstErr.idx) {
			firstErr = o.firstErr
		}
	}
	return best, firstErr
}

// evaluate runs the χ and placement searches of one surviving assignment
// under the incumbent-derived bound, publishes the schedule, and keeps it
// as out's best or records its error as out's first.
func (s *search) evaluate(out *searchOut, assign []int, idx int, bound int64) {
	sched, err := s.p.scheduleForAssignment(s.ctx, &out.sc, assign, bound)
	if err != nil {
		if errors.Is(err, solver.ErrCanceled) {
			s.interrupted.Store(true)
		}
		if !skippableSearchErr(err) && (out.firstErr == nil || idx < out.firstErr.idx) {
			out.firstErr = &searchErr{idx: idx, err: err}
		}
		return
	}
	if !sched.Optimal && s.ctx.Err() != nil {
		// The timing search kept an incumbent but was cut short.
		s.interrupted.Store(true)
	}
	s.publish(sched.EnergyPC, sched.Makespan, idx)
	if out.best == nil || s.p.betterCand(sched.EnergyPC, sched.Makespan, idx,
		out.best.sched.EnergyPC, out.best.sched.Makespan, out.best.idx) {
		out.best = &candidate{sched: sched, idx: idx}
	}
}

// publish installs (energy, makespan, idx) as the incumbent unless a
// better one (under the objective's total order) is already in place.
func (s *search) publish(energy, makespan int64, idx int) {
	var rec *incumbentRec
	for {
		cur := s.inc.Load()
		if cur != nil && !s.p.betterCand(energy, makespan, idx, cur.energy, cur.makespan, cur.idx) {
			return
		}
		if rec == nil {
			rec = &incumbentRec{energy: energy, makespan: makespan, idx: idx}
		}
		if s.inc.CompareAndSwap(cur, rec) {
			return
		}
	}
}
