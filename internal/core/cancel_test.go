package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netdag/netdag/internal/apps"
	"github.com/netdag/netdag/internal/dag"
	"github.com/netdag/netdag/internal/glossy"
	"github.com/netdag/netdag/internal/wh"
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

// TestDeadlineAfterTierCutKeepsOptimality: once the tier cut fires,
// nothing is left to decide, so a deadline that strikes after it must
// not demote the search. On pipe8 at Workers = 1 the search evaluates
// its 64 two-round assignments and stops the walk at the cut in fewer
// than 150 context polls. A producer that kept walking the cut
// assignments polled once per assignment, 6,497 times in all, and turned
// this solve into ErrCanceled with Optimal = false.
func TestDeadlineAfterTierCutKeepsOptimality(t *testing.T) {
	ref, err := Solve(pipe8Problem(t))
	if err != nil {
		t.Fatal(err)
	}
	p := pipe8Problem(t)
	p.Workers = 1
	late := &countdownCtx{Context: context.Background(), flipAfter: 150}
	s, err := SolveContext(late, p)
	t.Logf("%d context polls", late.calls.Load())
	if err != nil {
		t.Fatalf("deadline after the tier cut interrupted a complete search: %v", err)
	}
	if !s.Optimal || s.Explored != 6433 || s.Makespan != ref.Makespan {
		t.Errorf("optimal=%v explored=%d makespan=%d, want true, 6433, %d", s.Optimal, s.Explored, s.Makespan, ref.Makespan)
	}
}

// wideFanProblem has w sources A_i that each feed their own consumer B_i
// and one shared consumer C, which all feed the sink Z. Its one two-round
// assignment is optimal, the first three-round assignment trips the tier
// cut, and counting the rest of the enumeration, 3^w + 2^w − 3
// assignments, passes through about 2^w distinct states.
func wideFanProblem(t testing.TB, w int) *Problem {
	t.Helper()
	g := dag.New()
	c := g.MustAddTask("c", "nc", 100)
	z := g.MustAddTask("z", "nz", 100)
	g.MustConnect(c, z, 4)
	for i := 0; i < w; i++ {
		a := g.MustAddTask(fmt.Sprintf("a%d", i), fmt.Sprintf("na%d", i), 100)
		b := g.MustAddTask(fmt.Sprintf("b%d", i), fmt.Sprintf("nb%d", i), 100)
		g.MustConnect(a, b, 4)
		g.MustConnect(a, c, 4)
		g.MustConnect(b, z, 4)
	}
	return &Problem{
		App: g, Params: glossy.DefaultParams(), Diameter: 3,
		Mode: WeaklyHard, WHStat: glossy.SyntheticWH{},
		WHCons: map[dag.TaskID]wh.MissConstraint{},
	}
}

// TestDeadlineDuringCountCancels: counting what the tier cut skipped can
// take as long as walking it, so the count must heed the deadline too. On
// a 24-wide fan the count would pass through ~2^24 states; the solve must
// return soon after its 300 ms deadline with ErrCanceled, and any
// incumbent it returns is not optimal. At Workers = 1 the walk stops at
// its second assignment, so Explored is at most 2: the walked count,
// since the count never finished.
func TestDeadlineDuringCountCancels(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := wideFanProblem(t, 24)
		p.Workers = workers
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		start := time.Now()
		s, err := SolveContext(ctx, p)
		el := time.Since(start)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err %v, want ErrCanceled", workers, err)
		}
		if el > 3*time.Second {
			t.Errorf("workers=%d: returned %v after a 300ms deadline", workers, el)
		}
		if s == nil {
			continue // the deadline struck before the first schedule
		}
		t.Logf("workers=%d: returned after %v, explored %d", workers, el, s.Explored)
		if s.Optimal {
			t.Errorf("workers=%d: a canceled solve claims optimality", workers)
		}
		if workers == 1 && s.Explored > 2 {
			t.Errorf("workers=1: explored %d, want at most 2", s.Explored)
		}
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
