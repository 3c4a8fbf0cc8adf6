package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, log-spaced from "cache-adjacent" to "deadline territory".
var latencyBuckets = [...]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60}

// metrics is the server's observability surface, rendered in Prometheus
// text exposition format by writeProm. Everything is lock-free atomics;
// the histogram tolerates the usual scrape-time skew between bucket
// counts and sum.
type metrics struct {
	cacheHits         atomic.Int64 // served straight from the LRU
	cacheMisses       atomic.Int64 // led a fresh solve (flight leader)
	coalesced         atomic.Int64 // piggybacked on an in-flight identical solve
	admissionRejected atomic.Int64 // 429: queue full
	deadlineExpired   atomic.Int64 // 504: deadline with no incumbent
	solveErrors       atomic.Int64 // 422: infeasible / unsat specs
	badRequests       atomic.Int64 // 400: malformed specs
	incomplete        atomic.Int64 // 200 with a non-optimal incumbent

	certifyRequests      atomic.Int64 // POST /v1/certify requests received
	certifyViolations    atomic.Int64 // constraints flagged as violated across reports
	campaignReplications atomic.Int64 // cumulative campaign replications simulated

	batchRequests atomic.Int64 // POST /v1/solve-batch envelopes accepted
	batchItems    atomic.Int64 // items across accepted batches
	batchDeduped  atomic.Int64 // items answered by another item's solve

	journalReplayed  atomic.Int64 // records restored from the journal at startup
	journalSkipped   atomic.Int64 // corrupt journal records dropped during replay
	journalTruncated atomic.Int64 // torn journal tails healed at startup
	journalAppended  atomic.Int64 // complete solves appended to the journal
	journalErrors    atomic.Int64 // journal append failures (solve still served)

	inflight          atomic.Int64 // solves currently running
	queued            atomic.Int64 // solves waiting for a worker slot
	inflightCampaigns atomic.Int64 // certification campaigns currently running

	exploredAssignments atomic.Int64 // cumulative Schedule.Explored
	solverNodes         atomic.Int64 // cumulative Schedule.SolverNodes

	latencyCount atomic.Int64
	latencySumUS atomic.Int64
	latencyBkt   [len(latencyBuckets) + 1]atomic.Int64 // +Inf tail

	// Session re-solve latencies (each solve attempt a live session runs,
	// including safe-table precomputation), same bucket layout.
	resolveCount atomic.Int64
	resolveSumUS atomic.Int64
	resolveBkt   [len(latencyBuckets) + 1]atomic.Int64
}

// observeSolve records one completed (or canceled) solve's wall time.
func (m *metrics) observeSolve(d time.Duration) {
	m.latencyCount.Add(1)
	m.latencySumUS.Add(d.Microseconds())
	sec := d.Seconds()
	for i, ub := range latencyBuckets {
		if sec <= ub {
			m.latencyBkt[i].Add(1)
			return
		}
	}
	m.latencyBkt[len(latencyBuckets)].Add(1)
}

// observeSessionResolve records one session re-solve attempt's wall
// time (the session.Config.ObserveResolve hook).
func (m *metrics) observeSessionResolve(d time.Duration) {
	m.resolveCount.Add(1)
	m.resolveSumUS.Add(d.Microseconds())
	sec := d.Seconds()
	for i, ub := range latencyBuckets {
		if sec <= ub {
			m.resolveBkt[i].Add(1)
			return
		}
	}
	m.resolveBkt[len(latencyBuckets)].Add(1)
}

// writeProm renders the metrics in Prometheus text exposition format.
// cacheLen and sess are sampled at scrape time.
func (m *metrics) writeProm(w io.Writer, cacheLen int, sess sessionAgg) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("netdag_cache_hits_total", "Solve requests served from the solution cache.", m.cacheHits.Load())
	counter("netdag_cache_misses_total", "Solve requests that led a fresh solve.", m.cacheMisses.Load())
	counter("netdag_solves_coalesced_total", "Solve requests coalesced onto an identical in-flight solve.", m.coalesced.Load())
	counter("netdag_admission_rejected_total", "Solve requests rejected with 429 because the queue was full.", m.admissionRejected.Load())
	counter("netdag_deadline_expired_total", "Solve requests that hit their deadline with no incumbent (504).", m.deadlineExpired.Load())
	counter("netdag_solve_errors_total", "Solve requests whose spec was valid but unsolvable (422).", m.solveErrors.Load())
	counter("netdag_bad_requests_total", "Requests with malformed specs (400).", m.badRequests.Load())
	counter("netdag_solves_incomplete_total", "Solves that returned a non-optimal incumbent at the deadline.", m.incomplete.Load())
	counter("netdag_explored_assignments_total", "Cumulative round assignments examined across solves.", m.exploredAssignments.Load())
	counter("netdag_solver_nodes_total", "Cumulative branch-and-bound nodes spent on winning placements.", m.solverNodes.Load())
	counter("netdag_batch_requests_total", "Batch solve envelopes accepted.", m.batchRequests.Load())
	counter("netdag_batch_items_total", "Items across accepted batch requests.", m.batchItems.Load())
	counter("netdag_batch_deduped_total", "Batch items deduplicated onto another item's solve.", m.batchDeduped.Load())
	counter("netdag_journal_replayed_total", "Cache entries restored from the journal at startup.", m.journalReplayed.Load())
	counter("netdag_journal_skipped_total", "Corrupt journal records dropped during replay.", m.journalSkipped.Load())
	counter("netdag_journal_truncated_total", "Torn journal tails healed at startup.", m.journalTruncated.Load())
	counter("netdag_journal_appended_total", "Complete solves appended to the journal.", m.journalAppended.Load())
	counter("netdag_journal_errors_total", "Journal append failures (the solve was still served).", m.journalErrors.Load())
	counter("netdag_certify_requests_total", "Certification requests received.", m.certifyRequests.Load())
	counter("netdag_certify_violations_total", "Constraints flagged as empirically violated across certification reports.", m.certifyViolations.Load())
	counter("netdag_campaign_replications_total", "Cumulative fault-campaign replications simulated.", m.campaignReplications.Load())
	counter("netdag_session_events_total", "Events applied to scheduler sessions (all outcomes).", sess.stats.Events)
	counter("netdag_session_applied_total", "Session events that committed with a proven replacement schedule.", sess.stats.Applied)
	counter("netdag_session_rejected_total", "Session events rejected (malformed or unprovable workload changes).", sess.stats.Rejected)
	counter("netdag_session_rejected_swaps_total", "Unproven incumbents a session refused to install.", sess.stats.RejectedSwaps)
	counter("netdag_session_fallbacks_total", "Safe-mode installations after failed re-solves.", sess.stats.Fallbacks)
	counter("netdag_session_mode_switches_total", "Transitions between active and degraded operation.", sess.stats.ModeSwitches)
	counter("netdag_session_recoveries_total", "Re-solve successes that retired a degraded mode.", sess.stats.Recoveries)
	counter("netdag_session_resolves_total", "Session re-solve attempts.", sess.stats.Resolves)
	gauge("netdag_inflight_solves", "Solves currently running.", m.inflight.Load())
	gauge("netdag_inflight_campaigns", "Certification campaigns currently running.", m.inflightCampaigns.Load())
	gauge("netdag_queue_depth", "Solves waiting for a worker slot.", m.queued.Load())
	gauge("netdag_cache_entries", "Entries resident in the solution cache.", int64(cacheLen))
	gauge("netdag_sessions", "Live scheduler sessions.", sess.live)

	fmt.Fprintf(w, "# HELP netdag_solve_seconds Wall time of solves (cache misses only).\n")
	fmt.Fprintf(w, "# TYPE netdag_solve_seconds histogram\n")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += m.latencyBkt[i].Load()
		fmt.Fprintf(w, "netdag_solve_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.latencyBkt[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "netdag_solve_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "netdag_solve_seconds_sum %g\n", float64(m.latencySumUS.Load())/1e6)
	fmt.Fprintf(w, "netdag_solve_seconds_count %d\n", m.latencyCount.Load())

	fmt.Fprintf(w, "# HELP netdag_session_resolve_seconds Wall time of session re-solve attempts.\n")
	fmt.Fprintf(w, "# TYPE netdag_session_resolve_seconds histogram\n")
	cum = 0
	for i, ub := range latencyBuckets {
		cum += m.resolveBkt[i].Load()
		fmt.Fprintf(w, "netdag_session_resolve_seconds_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.resolveBkt[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "netdag_session_resolve_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "netdag_session_resolve_seconds_sum %g\n", float64(m.resolveSumUS.Load())/1e6)
	fmt.Fprintf(w, "netdag_session_resolve_seconds_count %d\n", m.resolveCount.Load())
}

// trimFloat renders a bucket bound without trailing zeros ("0.05", "1").
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
