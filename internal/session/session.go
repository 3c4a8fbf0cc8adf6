// Package session implements long-lived scheduler sessions for online
// adaptive rescheduling: a session owns the current certified schedule
// and accepts a stream of deltas — task join/leave, placement changes,
// diameter changes from mobility profiles, degraded link quality fed
// back from fault-campaign certification — re-solving the changed
// description with one complete search.
//
// Robustness is the contract:
//
//   - The last proven schedule stays active until a replacement is
//     itself proven: a re-solve that returns a truncated or unproven
//     incumbent is counted as a rejected swap, never installed.
//   - Re-solves run under a per-attempt deadline with jittered
//     exponential backoff between attempts (internal/backoff); only
//     deadline expiry is retried — deterministic failures (infeasible,
//     empty χ domain) fail fast.
//   - When a re-solve fails for an environment fact the session cannot
//     refuse (the network changed whether the solver likes it or not),
//     a precomputed degraded "safe mode" — a TTW-style mode table of
//     schedules with the retransmission parameter pinned to its maximum
//     over a set of covering diameters — is installed within the bounded
//     latency of a table lookup.
//   - Every transition is recorded in an event journal whose entries
//     carry no timing or work accounting, so journals are bit-identical
//     across worker counts and repeat runs with the same seed; latencies
//     go to metrics instead.
package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/netdag/netdag/internal/backoff"
	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
)

// State is the session's position in the active → resolving → degraded →
// recovered machine. "Recovered" is not a resting state: a recovery is
// journaled as OutcomeRecovered and the session returns to StateActive.
type State string

const (
	// StateActive: the current schedule was proven optimal and valid for
	// the current problem description.
	StateActive State = "active"
	// StateResolving: a re-solve is in flight; the previous schedule
	// remains the one exposed.
	StateResolving State = "resolving"
	// StateDegraded: re-solving failed for a committed environment fact;
	// a safe-mode schedule is installed until a re-solve succeeds.
	StateDegraded State = "degraded"
)

// Outcome classifies one journal entry.
type Outcome string

const (
	// OutcomeInit is the first entry: the initial certified schedule.
	OutcomeInit Outcome = "init"
	// OutcomeApplied: the event committed and a replacement schedule was
	// proven and installed.
	OutcomeApplied Outcome = "applied"
	// OutcomeRecovered: as applied, from a degraded session — the
	// re-solve succeeded again and safe mode was retired.
	OutcomeRecovered Outcome = "recovered"
	// OutcomeRejected: the event did not commit (malformed, or a
	// workload event whose re-solve failed); the previous schedule and
	// description stand.
	OutcomeRejected Outcome = "rejected"
	// OutcomeDegraded: an environment fact committed but re-solving
	// failed; a safe-mode schedule was installed.
	OutcomeDegraded Outcome = "degraded"
)

// Entry is one journal record. Entries deliberately exclude latencies,
// node counts and attempt timings — everything in an Entry is a
// deterministic function of the spec and the event stream, which is what
// makes journals comparable byte-for-byte across runs and worker counts.
type Entry struct {
	Seq      int     `json:"seq"`
	Event    Event   `json:"event"`
	Outcome  Outcome `json:"outcome"`
	State    State   `json:"state"` // state after the event
	Makespan int64   `json:"makespanUS"`
	Rounds   int     `json:"rounds"`
	BusTime  int64   `json:"busTimeUS"`
	// Attempts is how many solve attempts the event consumed (0 when no
	// solve ran, e.g. malformed events).
	Attempts int `json:"attempts,omitempty"`
	// SafeDiameter is the installed safe mode's diameter (degraded
	// entries only).
	SafeDiameter int    `json:"safeDiameter,omitempty"`
	Error        string `json:"error,omitempty"`
	Note         string `json:"note,omitempty"`
}

// Stats are the session's monotonic counters, snapshotted under lock.
type Stats struct {
	Events        int64 `json:"events"`
	Applied       int64 `json:"applied"`
	Rejected      int64 `json:"rejected"`
	RejectedSwaps int64 `json:"rejectedSwaps"`
	Fallbacks     int64 `json:"fallbacks"`
	ModeSwitches  int64 `json:"modeSwitches"`
	Recoveries    int64 `json:"recoveries"`
	Resolves      int64 `json:"resolves"`
	// WarmHits is always 0: re-solves carry no warm-start hint. It is
	// kept, out of every JSON response, only for the benchmark harness
	// that still reads it.
	WarmHits int64 `json:"-"`
}

// Config tunes a session.
type Config struct {
	// Workers configures every solve the session runs, exactly as on
	// core.Problem.
	Workers int
	// ResolveDeadline bounds each re-solve attempt (0 = none; with no
	// deadline there are no transient failures, so every event resolves
	// in one attempt and the journal is deterministic).
	ResolveDeadline time.Duration
	// MaxAttempts bounds deadline-expired retries per event (default 3).
	// Deterministic failures are never retried.
	MaxAttempts int
	// Backoff spaces the retries; the zero value selects the
	// backoff defaults.
	Backoff backoff.Policy
	// BackoffSeed seeds the retry jitter. Zero disables jitter: delays
	// are the deterministic envelope.
	BackoffSeed int64
	// SafeDiameters are the network diameters the safe-mode table
	// covers; empty means just the spec's diameter. A degraded session
	// installs the smallest tabled mode covering the current diameter.
	SafeDiameters []int
	// ObserveResolve, when set, receives each solve attempt's wall-clock
	// latency (the serve layer's histogram hook).
	ObserveResolve func(time.Duration)
	// Sleep replaces time.Sleep in the retry loop (tests, simulations).
	Sleep func(time.Duration)
}

// ErrClosed reports use of a closed session.
var ErrClosed = errors.New("session: closed")

// safeMode is one row of the precomputed TTW-style mode table: a proven
// schedule for the task set at a covering diameter with χ pinned to
// MaxNTX — the most conservative retransmission setting the hardware
// supports, so it stays valid under any link quality the statistic can
// express.
type safeMode struct {
	diameter int
	file     *spec.File
	prob     *core.Problem
	sched    *core.Schedule
}

// Session is a long-lived scheduler session. All methods are safe for
// concurrent use; Apply calls serialize.
type Session struct {
	cfg Config
	rng *rand.Rand // retry jitter; nil = deterministic envelope

	applyMu sync.Mutex // serializes Apply / Close

	mu        sync.RWMutex
	file      *spec.File     // current problem description (committed facts)
	prob      *core.Problem  // the problem the active schedule proves
	active    *core.Schedule // never unproven: Optimal && Validate'd
	state     State
	resolving bool
	safe      []safeMode // sorted by diameter
	journal   []Entry
	stats     Stats
	notify    chan struct{} // closed and replaced on every journal append
	closed    bool
}

// New solves the spec cold, precomputes the safe-mode table and returns
// an active session. It fails when the initial problem cannot be proven
// or when no safe mode is solvable — a session without a fallback could
// not honor the degraded-operation contract.
func New(ctx context.Context, f *spec.File, cfg Config) (*Session, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	s := &Session{cfg: cfg, notify: make(chan struct{})}
	if cfg.BackoffSeed != 0 {
		s.rng = rand.New(rand.NewSource(cfg.BackoffSeed))
	}
	file := cloneFile(f)
	prob, err := buildProblem(file, cfg)
	if err != nil {
		return nil, err
	}
	sched, _, err := s.solveProven(ctx, prob)
	if err != nil {
		return nil, fmt.Errorf("session: initial solve: %w", err)
	}
	safe, err := computeSafeTable(ctx, file, cfg)
	if err != nil {
		return nil, err
	}
	s.file = file
	s.prob = prob
	s.active = sched
	s.state = StateActive
	s.safe = safe
	s.mu.Lock()
	s.appendLocked(&Entry{
		Event:    Event{Kind: KindInit},
		Outcome:  OutcomeInit,
		State:    StateActive,
		Makespan: sched.Makespan,
		Rounds:   len(sched.Rounds),
		BusTime:  sched.BusTime,
	})
	s.mu.Unlock()
	return s, nil
}

// buildProblem converts the description into a solvable core.Problem
// with the session's solver knobs applied.
func buildProblem(f *spec.File, cfg Config) (*core.Problem, error) {
	p, err := spec.Build(f)
	if err != nil {
		return nil, err
	}
	p.Workers = cfg.Workers
	return p, nil
}

// computeSafeTable solves the description once per covering diameter
// with χ pinned to MaxNTX. Diameters that fail to solve are skipped; an
// empty table is an error.
func computeSafeTable(ctx context.Context, f *spec.File, cfg Config) ([]safeMode, error) {
	ds := append([]int(nil), cfg.SafeDiameters...)
	if len(ds) == 0 {
		ds = []int{f.Diameter}
	}
	sort.Ints(ds)
	var table []safeMode
	for i, d := range ds {
		if d < 1 || (i > 0 && d == ds[i-1]) {
			continue
		}
		sf := cloneFile(f)
		sf.Diameter = d
		maxNTX := sf.MaxNTX
		if maxNTX == 0 {
			maxNTX = core.DefaultMaxNTX
		}
		sf.MinNTX = maxNTX
		prob, err := buildProblem(sf, cfg)
		if err != nil {
			continue
		}
		sched, err := core.SolveContext(ctx, prob)
		if err != nil || !sched.Optimal || sched.Validate(prob.App) != nil {
			continue
		}
		table = append(table, safeMode{diameter: d, file: sf, prob: prob, sched: sched})
	}
	if len(table) == 0 {
		return nil, errors.New("session: no safe mode solvable for any configured diameter")
	}
	return table, nil
}

// pickSafe returns the smallest tabled mode covering the diameter, or
// the widest mode (with a note) when none does.
func pickSafe(table []safeMode, diameter int) (safeMode, string) {
	for _, m := range table {
		if m.diameter >= diameter {
			return m, ""
		}
	}
	w := table[len(table)-1]
	return w, fmt.Sprintf("no safe mode covers diameter %d; installed widest (%d)", diameter, w.diameter)
}

// Apply validates, commits and re-solves one event, returning its
// journal entry. Malformed events and failed workload events are
// journaled as rejected (entry, nil error); Apply only errors when the
// session is closed or ctx expires mid-solve — in the latter case the
// event is not journaled and may be re-applied.
func (s *Session) Apply(ctx context.Context, e Event) (Entry, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()

	s.mu.RLock()
	closed := s.closed
	file := s.file
	prevState := s.state
	s.mu.RUnlock()
	if closed {
		return Entry{}, ErrClosed
	}

	entry := Entry{Event: e}
	nf, err := applyToFile(file, e)
	if err != nil {
		return s.commitRejected(entry, err), nil
	}
	var sched *core.Schedule
	var attempts int
	prob, err := buildProblem(nf, s.cfg)
	if err == nil {
		sched, attempts, err = s.resolve(ctx, prob)
	}
	entry.Attempts = attempts
	if sched != nil {
		// The safe table must cover the new task set before the workload
		// commits: a session whose fallback cannot host the admitted work
		// would violate the degraded-operation contract at the worst time.
		var safe []safeMode
		if e.workload() {
			var serr error
			safe, serr = computeSafeTable(ctx, nf, s.cfg)
			if serr != nil {
				return s.commitRejected(entry, fmt.Errorf("schedule proven but %w", serr)), nil
			}
		}
		return s.commitApplied(entry, nf, prob, sched, safe, prevState), nil
	}
	if ctx.Err() != nil {
		return Entry{}, ctx.Err()
	}
	if !e.environment() {
		return s.commitRejected(entry, err), nil
	}
	return s.commitDegraded(entry, nf, prevState, err), nil
}

// resolve runs the re-solve retry loop: attempts under the per-attempt
// deadline, backoff between retries, deterministic failures surfaced
// immediately. Only a schedule that is proven optimal AND revalidates
// against the application is ever returned — anything less counts as a
// rejected swap.
func (s *Session) resolve(ctx context.Context, p *core.Problem) (*core.Schedule, int, error) {
	s.mu.Lock()
	s.resolving = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.resolving = false
		s.mu.Unlock()
	}()
	var lastErr error
	for a := 0; a < s.cfg.MaxAttempts; a++ {
		if a > 0 {
			s.cfg.Sleep(s.cfg.Backoff.Delay(a-1, s.rng))
		}
		if ctx.Err() != nil {
			return nil, a, ctx.Err()
		}
		sched, retryable, err := s.solveProven(ctx, p)
		if err == nil {
			return sched, a + 1, nil
		}
		lastErr = err
		if !retryable {
			return nil, a + 1, lastErr
		}
	}
	return nil, s.cfg.MaxAttempts, lastErr
}

// solveProven runs one solve attempt and enforces the never-swap-to-
// unproven invariant. retryable is true only for per-attempt deadline
// expiry — the single transient failure mode.
func (s *Session) solveProven(ctx context.Context, p *core.Problem) (*core.Schedule, bool, error) {
	actx := ctx
	cancel := func() {}
	if s.cfg.ResolveDeadline > 0 {
		actx, cancel = context.WithTimeout(ctx, s.cfg.ResolveDeadline)
	}
	start := time.Now()
	sched, err := core.SolveContext(actx, p)
	cancel()
	if s.cfg.ObserveResolve != nil {
		s.cfg.ObserveResolve(time.Since(start))
	}
	s.mu.Lock()
	s.stats.Resolves++
	s.mu.Unlock()
	switch {
	case err == nil && sched.Optimal:
		if verr := sched.Validate(p.App); verr != nil {
			s.bumpRejectedSwaps()
			return nil, false, fmt.Errorf("session: proven schedule failed revalidation: %w", verr)
		}
		return sched, false, nil
	case err == nil:
		// A budget-truncated search handed back an unproven incumbent.
		// Same budget next attempt, same truncation: not retryable.
		s.bumpRejectedSwaps()
		return nil, false, fmt.Errorf("session: re-solve truncated by node budget; incumbent (makespan %d) not proven", sched.Makespan)
	case errors.Is(err, core.ErrCanceled):
		if sched != nil {
			s.bumpRejectedSwaps()
		}
		return nil, ctx.Err() == nil, err
	default:
		return nil, false, err
	}
}

func (s *Session) bumpRejectedSwaps() {
	s.mu.Lock()
	s.stats.RejectedSwaps++
	s.mu.Unlock()
}

func (s *Session) commitRejected(entry Entry, cause error) Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry.Outcome = OutcomeRejected
	entry.State = s.state
	if cause != nil {
		entry.Error = cause.Error()
	}
	if s.active != nil {
		entry.Makespan = s.active.Makespan
		entry.Rounds = len(s.active.Rounds)
		entry.BusTime = s.active.BusTime
	}
	s.stats.Events++
	s.stats.Rejected++
	s.appendLocked(&entry)
	return entry
}

func (s *Session) commitApplied(entry Entry, nf *spec.File, prob *core.Problem, sched *core.Schedule, safe []safeMode, prevState State) Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.file = nf
	s.prob = prob
	s.active = sched
	s.state = StateActive
	if safe != nil {
		s.safe = safe
	}
	entry.Outcome = OutcomeApplied
	if prevState == StateDegraded {
		entry.Outcome = OutcomeRecovered
		s.stats.Recoveries++
		s.stats.ModeSwitches++
	}
	entry.State = StateActive
	entry.Makespan = sched.Makespan
	entry.Rounds = len(sched.Rounds)
	entry.BusTime = sched.BusTime
	s.stats.Events++
	s.stats.Applied++
	s.appendLocked(&entry)
	return entry
}

func (s *Session) commitDegraded(entry Entry, nf *spec.File, prevState State, cause error) Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	mode, note := pickSafe(s.safe, nf.Diameter)
	s.file = nf // the fact commits regardless
	s.prob = mode.prob
	s.active = mode.sched
	s.state = StateDegraded
	entry.Outcome = OutcomeDegraded
	entry.State = StateDegraded
	entry.Makespan = mode.sched.Makespan
	entry.Rounds = len(mode.sched.Rounds)
	entry.BusTime = mode.sched.BusTime
	entry.SafeDiameter = mode.diameter
	entry.Note = note
	if cause != nil {
		entry.Error = cause.Error()
	}
	s.stats.Events++
	s.stats.Fallbacks++
	if prevState != StateDegraded {
		s.stats.ModeSwitches++
	}
	s.appendLocked(&entry)
	return entry
}

// appendLocked journals the entry (assigning its Seq) and wakes feed
// subscribers. Callers hold s.mu.
func (s *Session) appendLocked(e *Entry) {
	e.Seq = len(s.journal) + 1
	s.journal = append(s.journal, *e)
	close(s.notify)
	s.notify = make(chan struct{})
}

// StatusView is the session's externally visible state.
type StatusView struct {
	State         State `json:"state"`
	Seq           int   `json:"seq"`
	Makespan      int64 `json:"makespanUS"`
	Rounds        int   `json:"rounds"`
	BusTime       int64 `json:"busTimeUS"`
	Diameter      int   `json:"diameter"`
	MinNTX        int   `json:"minNTX,omitempty"`
	Tasks         int   `json:"tasks"`
	SafeDiameters []int `json:"safeDiameters"`
	Stats         Stats `json:"stats"`
	Optimal       bool  `json:"optimal"`
}

// Status snapshots the session.
func (s *Session) Status() StatusView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.state
	if s.resolving && st == StateActive {
		st = StateResolving
	}
	v := StatusView{
		State:    st,
		Seq:      len(s.journal),
		Diameter: s.file.Diameter,
		MinNTX:   s.file.MinNTX,
		Tasks:    len(s.file.Tasks),
		Stats:    s.stats,
	}
	for _, m := range s.safe {
		v.SafeDiameters = append(v.SafeDiameters, m.diameter)
	}
	if s.active != nil {
		v.Makespan = s.active.Makespan
		v.Rounds = len(s.active.Rounds)
		v.BusTime = s.active.BusTime
		v.Optimal = s.active.Optimal
	}
	return v
}

// Current returns the problem and schedule the session currently
// exposes (in degraded state: the safe mode's), plus the state. The
// returned values are never mutated by the session; treat them as
// read-only.
func (s *Session) Current() (*core.Problem, *core.Schedule, State) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prob, s.active, s.state
}

// File returns a deep copy of the current problem description.
func (s *Session) File() *spec.File {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return cloneFile(s.file)
}

// Stats snapshots the counters.
func (s *Session) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Journal returns the entries with Seq > since.
func (s *Session) Journal(since int) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if since < 0 {
		since = 0
	}
	if since >= len(s.journal) {
		return nil
	}
	return append([]Entry(nil), s.journal[since:]...)
}

// Wait blocks until entries beyond since exist and returns them; it
// unblocks with ErrClosed when the session closes and ctx.Err() when the
// context expires. The event-feed streaming endpoint is built on it.
func (s *Session) Wait(ctx context.Context, since int) ([]Entry, error) {
	if since < 0 {
		since = 0
	}
	for {
		s.mu.RLock()
		if len(s.journal) > since {
			out := append([]Entry(nil), s.journal[since:]...)
			s.mu.RUnlock()
			return out, nil
		}
		if s.closed {
			s.mu.RUnlock()
			return nil, ErrClosed
		}
		ch := s.notify
		s.mu.RUnlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// WriteJournal renders the full journal as JSON Lines — the replay and
// bit-identity format.
func (s *Session) WriteJournal(w io.Writer) error {
	for _, e := range s.Journal(0) {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Close marks the session closed, wakes all feed subscribers and
// returns the final counters. Further Applies fail with ErrClosed;
// reads keep working.
func (s *Session) Close() Stats {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.notify)
		s.notify = make(chan struct{})
	}
	return s.stats
}
