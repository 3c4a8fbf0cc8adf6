package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
)

// The schedule hash names what a solve produced, not how hard the search
// worked: the Explored and SolverNodes counters stay out of it, and
// everything else stays in.
func TestScheduleHashIgnoresWorkCounters(t *testing.T) {
	p, err := spec.Build(pipe8())
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 1
	s, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Export(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Explored == 0 || out.SolverNodes == 0 {
		t.Fatalf("export lacks work counters: explored %d, nodes %d", out.Explored, out.SolverNodes)
	}
	base, err := scheduleHash(out)
	if err != nil {
		t.Fatal(err)
	}

	worked := *out
	worked.Explored *= 3
	worked.SolverNodes += 7
	if h, _ := scheduleHash(&worked); h != base {
		t.Error("hash changed with Explored/SolverNodes")
	}
	changed := *out
	changed.MakespanUS++
	if h, _ := scheduleHash(&changed); h == base {
		t.Error("hash unchanged by a different makespan")
	}

	// The same schedule as indented file output and as a compact HTTP
	// body hashes the same.
	var indented bytes.Buffer
	if err := spec.WriteJSON(&indented, p, s); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(&worked)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"indented": indented.Bytes(), "compact": compact} {
		if h, err := bodyHash(body); err != nil || h != base {
			t.Errorf("%s body hash = %.12s (err %v), want %.12s", name, h, err, base)
		}
	}
}
