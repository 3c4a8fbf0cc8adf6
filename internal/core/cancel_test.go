package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
)

// TestSolveContextBackgroundMatchesSolve: the context-free entry point
// and an unexpiring context produce identical schedules.
func TestSolveContextBackgroundMatchesSolve(t *testing.T) {
	p1, _ := softPipeline(t, 0.9)
	p2, _ := softPipeline(t, 0.9)
	a, err := Solve(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveContext(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Optimal != b.Optimal || a.Explored != b.Explored {
		t.Errorf("Solve and SolveContext diverge: (%d,%v,%d) vs (%d,%v,%d)",
			a.Makespan, a.Optimal, a.Explored, b.Makespan, b.Optimal, b.Explored)
	}
}

// TestSolveContextAlreadyCanceled: a canceled context returns promptly
// with ErrCanceled for both the sequential and the parallel search.
func TestSolveContextAlreadyCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p, _ := softPipeline(t, 0.9)
		p.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		s, err := SolveContext(ctx, p)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if s != nil {
			t.Errorf("workers=%d: pre-canceled solve returned a schedule", workers)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("workers=%d: canceled solve took %v", workers, el)
		}
	}
}

// bigProblem is an instance whose full search takes long enough that a
// short deadline reliably strikes mid-search: a wide multi-rate-ish DAG
// with several extra rounds to enumerate.
func bigProblem(t testing.TB) *Problem {
	t.Helper()
	g, err := apps.RandomLayered(4, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := g.Tasks()[g.NumTasks()-1]
	return &Problem{
		App:       g,
		Params:    glossy.DefaultParams(),
		Diameter:  3,
		Mode:      Soft,
		SoftStat:  glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons:  map[dag.TaskID]float64{last.ID: 0.9},
		MaxRounds: 6,
	}
}

// TestSolveContextDeadlineReturnsIncumbent: once at least one schedule
// exists, a mid-search cancellation surfaces it with Optimal = false and
// ErrCanceled, and the incumbent still passes the feasibility audit.
func TestSolveContextDeadlineReturnsIncumbent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		// Find a deadline that interrupts: start tiny and grow until the
		// solve returns an incumbent (or completes, in which case the
		// machine is too fast for the instance and the test is moot).
		interrupted := false
		for budget := 2 * time.Millisecond; budget < 10*time.Second; budget *= 2 {
			p := bigProblem(t)
			p.Workers = workers
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			s, err := SolveContext(ctx, p)
			cancel()
			if err == nil {
				break // completed inside the budget; nothing to observe
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("workers=%d: err = %v, want ErrCanceled or nil", workers, err)
			}
			if s == nil {
				continue // canceled before any incumbent; raise the budget
			}
			interrupted = true
			if s.Optimal {
				t.Errorf("workers=%d: canceled solve claims optimality", workers)
			}
			if verr := s.Validate(p.App); verr != nil {
				t.Errorf("workers=%d: incumbent fails feasibility audit: %v", workers, verr)
			}
			break
		}
		_ = interrupted // informational: completing early is not a failure
	}
}

// countdownCtx reports a live context for its first flipAfter Err()
// polls and a canceled one afterwards, pinning exactly *when* during a
// solve the expiry becomes observable.
type countdownCtx struct {
	context.Context
	calls     atomic.Int64
	flipAfter int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.flipAfter {
		return context.Canceled
	}
	return nil
}

// TestFinishLineExpiryKeepsOptimality is the finish-line regression: a
// search that ran to completion must stay optimal (and cacheable) even
// when the context expires the instant it finishes. The old SolveContext
// re-polled ctx after the search and demoted the proven schedule to a
// canceled incumbent.
func TestFinishLineExpiryKeepsOptimality(t *testing.T) {
	// First pass: count how many times a successful solve polls the
	// context. The sequential path is deterministic, so the count is too.
	counter := &countdownCtx{Context: context.Background(), flipAfter: math.MaxInt64}
	ref, err := SolveContext(counter, softPipeline4(t))
	if err != nil || !ref.Optimal {
		t.Fatalf("reference solve: optimal=%v err=%v", ref != nil && ref.Optimal, err)
	}
	polls := counter.calls.Load()

	// Second pass: the context dies exactly after the search's last
	// poll — every in-search poll saw it alive, so nothing was cut
	// short and the result must remain a proven optimum.
	late := &countdownCtx{Context: context.Background(), flipAfter: polls}
	s, err := SolveContext(late, softPipeline4(t))
	if err != nil {
		t.Fatalf("finish-line expiry misreported a completed search: %v", err)
	}
	if !s.Optimal || s.Makespan != ref.Makespan {
		t.Errorf("optimal=%v makespan=%d, want true, %d", s.Optimal, s.Makespan, ref.Makespan)
	}
}

// softPipeline4 is a four-stage soft pipeline with a 0.9 reliability
// target on its sink.
func softPipeline4(t *testing.T) *Problem {
	t.Helper()
	g, err := apps.Pipeline(4, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode:     Soft,
		SoftStat: glossy.BernoulliSoft{PerTX: 0.9},
		SoftCons: map[dag.TaskID]float64{g.Sinks()[0]: 0.9},
	}
}
