package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/session"
	"github.com/netdag/netdag/internal/spec"
	"github.com/netdag/netdag/internal/wh"
)

// audit re-checks a schedule against its problem independently of the
// solver's own bookkeeping: the eq. 4/5 timing conditions through
// Schedule.Validate, and every task-level constraint through the core
// guarantee auditors (eq. 6 for soft, eq. 9/10 for weakly hard).
func audit(p *core.Problem, s *core.Schedule) error {
	if err := s.Validate(p.App); err != nil {
		return err
	}
	switch p.Mode {
	case core.Soft:
		for id, target := range p.SoftCons {
			got, err := core.SatisfiedSoft(p, s, id)
			if err != nil {
				return err
			}
			if got < target-1e-9 {
				return fmt.Errorf("task %q guaranteed %v < target %v", p.App.Task(id).Name, got, target)
			}
		}
	case core.WeaklyHard:
		for id, target := range p.WHCons {
			g, ok, err := core.SatisfiedWH(p, s, id)
			if err != nil {
				return err
			}
			if ok && !wh.SufficientlyImpliesMiss(g, target) {
				return fmt.Errorf("task %q guarantee %v does not imply %v", p.App.Task(id).Name, g, target)
			}
		}
	}
	return nil
}

// scheduleHash is the identity of an exported schedule: the SHA-256 of
// its spec.ScheduleOut JSON with the Explored and SolverNodes work
// counters zeroed. The counters describe how the search ran, not what it
// produced, so a change that prunes harder keeps every hash.
func scheduleHash(out *spec.ScheduleOut) (string, error) {
	c := *out
	c.Explored = 0
	c.SolverNodes = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// bodyHash parses an exported schedule (indented file output or a
// compact HTTP body alike) and returns its scheduleHash.
func bodyHash(body []byte) (string, error) {
	var out spec.ScheduleOut
	if err := json.Unmarshal(body, &out); err != nil {
		return "", fmt.Errorf("parse schedule: %w", err)
	}
	return scheduleHash(&out)
}

// entryHash is the identity of a session journal entry: sequence number,
// event, outcome, state, makespan, rounds and bus time. WarmHit and
// Attempts describe how the re-solve ran and stay out, so removing warm
// starts keeps every hash.
func entryHash(e session.Entry) string {
	b, err := json.Marshal(struct {
		Seq      int             `json:"seq"`
		Event    session.Event   `json:"event"`
		Outcome  session.Outcome `json:"outcome"`
		State    session.State   `json:"state"`
		Makespan int64           `json:"makespanUS"`
		Rounds   int             `json:"rounds"`
		BusTime  int64           `json:"busTimeUS"`
	}{e.Seq, e.Event, e.Outcome, e.State, e.Makespan, e.Rounds, e.BusTime})
	if err != nil {
		panic(err) // plain data: marshaling cannot fail
	}
	return sha(b)
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// unsatHash is the expected-output record of a spec the solver must
// reject with core.ErrUnsat.
const unsatHash = "unsat"

// expectedSeed is the seed the committed expected hashes were made with.
const expectedSeed = 1

// expected holds one workload's committed per-operation output hashes.
// Fixed hashes hold at every seed (the corpus, the hard tier's anchors);
// Seeded ones only at Seed, because the seed generates those inputs.
type expected struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Fixed    map[string]string `json:"fixed,omitempty"`
	Seeded   map[string]string `json:"seeded,omitempty"`
}

// lookup returns the expected hash for key under the run's seed.
func (e *expected) lookup(key string, seed int64) (string, bool) {
	if e == nil {
		return "", false
	}
	if h, ok := e.Fixed[key]; ok {
		return h, true
	}
	if seed == e.Seed {
		h, ok := e.Seeded[key]
		return h, ok
	}
	return "", false
}

// check compares an operation's hash with the committed one, if any.
func (e *expected) check(key, got string, seed int64) error {
	want, ok := e.lookup(key, seed)
	if ok && want != got {
		return fmt.Errorf("%s: output hash %.12s, expected %.12s", key, got, want)
	}
	return nil
}

func expectedPath(root, workload string) string {
	return filepath.Join(root, "bench", "testdata", "expected", workload+".json")
}

func loadExpected(root, workload string) (*expected, error) {
	b, err := os.ReadFile(expectedPath(root, workload))
	if err != nil {
		return nil, fmt.Errorf("expected hashes: %w", err)
	}
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected hashes %s: %w", workload, err)
	}
	return &e, nil
}

func writeExpected(root string, e *expected) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(root, e.Workload), append(b, '\n'), 0o644)
}
