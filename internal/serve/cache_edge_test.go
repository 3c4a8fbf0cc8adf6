package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/spec"
)

// TestLRUEvictionOrder is a table-driven check of the cache's eviction
// policy, including the degenerate capacity-1 cache where every distinct
// put evicts the previous entry.
func TestLRUEvictionOrder(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ops      []string // "put:K" or "get:K"
		want     []string // keys that must be resident afterwards
		wantGone []string // keys that must have been evicted
	}{
		{
			name:     "capacity 1 keeps only the newest",
			capacity: 1,
			ops:      []string{"put:a", "put:b", "put:c"},
			want:     []string{"c"},
			wantGone: []string{"a", "b"},
		},
		{
			name:     "capacity 1 re-put refreshes in place",
			capacity: 1,
			ops:      []string{"put:a", "put:a", "put:a"},
			want:     []string{"a"},
		},
		{
			name:     "get refreshes recency before eviction",
			capacity: 2,
			ops:      []string{"put:a", "put:b", "get:a", "put:c"},
			want:     []string{"a", "c"},
			wantGone: []string{"b"}, // b was least recently used, not a
		},
		{
			name:     "untouched oldest entry is the victim",
			capacity: 2,
			ops:      []string{"put:a", "put:b", "put:c"},
			want:     []string{"b", "c"},
			wantGone: []string{"a"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRUCache(tc.capacity)
			for _, op := range tc.ops {
				key := op[4:]
				switch op[:4] {
				case "put:":
					c.put(key, []byte(key))
				case "get:":
					c.get(key)
				}
			}
			if c.len() > tc.capacity {
				t.Fatalf("cache holds %d entries, capacity %d", c.len(), tc.capacity)
			}
			for _, k := range tc.want {
				if _, ok := c.get(k); !ok {
					t.Errorf("key %q missing", k)
				}
			}
			for _, k := range tc.wantGone {
				if _, ok := c.get(k); ok {
					t.Errorf("key %q not evicted", k)
				}
			}
		})
	}
}

// TestCapacityOneServerEviction drives the eviction through the HTTP
// layer: with one cache slot, alternating distinct specs never hit.
func TestCapacityOneServerEviction(t *testing.T) {
	s := New(Config{CacheEntries: 1})
	if r := postSolve(t, s, pipelineSpec(3), ""); r.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("first spec: header %q, want miss", r.Header().Get(cacheHeader))
	}
	if r := postSolve(t, s, pipelineSpec(3), ""); r.Header().Get(cacheHeader) != "hit" {
		t.Fatalf("repeat while resident: header %q, want hit", r.Header().Get(cacheHeader))
	}
	if r := postSolve(t, s, pipelineSpec(4), ""); r.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("second spec: header %q, want miss", r.Header().Get(cacheHeader))
	}
	// The first spec was evicted by the second: full solve again.
	if r := postSolve(t, s, pipelineSpec(3), ""); r.Header().Get(cacheHeader) != "miss" {
		t.Fatalf("evicted spec: header %q, want miss", r.Header().Get(cacheHeader))
	}
	if s.cache.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", s.cache.len())
	}
}

// TestCoalescedFollowersSeeLeaderCancellation: followers that coalesced
// onto a flight whose leader's solve is canceled mid-flight (deadline,
// no incumbent) must all receive the leader's 504 — and the flight must
// be cleaned up so the next identical request starts fresh.
func TestCoalescedFollowersSeeLeaderCancellation(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	s := New(Config{
		SolveFn: func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
			once.Do(func() { close(entered) })
			<-ctx.Done() // canceled mid-flight by the leader's deadline
			return nil, core.ErrCanceled
		},
	})
	var wg sync.WaitGroup
	var leaderCode int
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := postSolve(t, s, pipelineSpec(3), "?deadline=100ms")
		leaderCode = r.Code
	}()
	<-entered // leader owns the flight and is inside the solve

	const followers = 2
	codes := make([]int, followers)
	headers := make([]string, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := postSolve(t, s, pipelineSpec(3), "")
			codes[i], headers[i] = r.Code, r.Header().Get(cacheHeader)
		}(i)
	}
	waitFor(t, func() bool { return s.metrics.coalesced.Load() == followers })
	wg.Wait()

	if leaderCode != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d, want 504", leaderCode)
	}
	for i := 0; i < followers; i++ {
		if codes[i] != http.StatusGatewayTimeout {
			t.Errorf("follower %d: status %d, want the leader's 504", i, codes[i])
		}
		if headers[i] != "coalesced" {
			t.Errorf("follower %d: cache header %q, want coalesced", i, headers[i])
		}
	}
	if s.cache.len() != 0 {
		t.Error("canceled solve left a cache entry")
	}
	// The flight is gone: a new identical request leads its own flight
	// (and is canceled the same way) rather than hanging on a dead one.
	s.flights.mu.Lock()
	inflight := len(s.flights.m)
	s.flights.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d flights still registered after the leader finished", inflight)
	}
	if r := postSolve(t, s, pipelineSpec(3), "?deadline=50ms"); r.Code != http.StatusGatewayTimeout {
		t.Errorf("fresh request after canceled flight: status %d, want 504", r.Code)
	}
}

// TestFingerprintStability is a table-driven check that the canonical
// fingerprint ignores JSON presentation — task order, edge order, key
// order, whitespace — and changes for any semantic difference.
func TestFingerprintStability(t *testing.T) {
	base := pipelineSpec(3)
	sameAs := func(a, b string) (bool, error) {
		var fa, fb spec.File
		if err := json.Unmarshal([]byte(a), &fa); err != nil {
			return false, err
		}
		if err := json.Unmarshal([]byte(b), &fb); err != nil {
			return false, err
		}
		ka, err := spec.Fingerprint(&fa)
		if err != nil {
			return false, err
		}
		kb, err := spec.Fingerprint(&fb)
		if err != nil {
			return false, err
		}
		return ka == kb, nil
	}
	cases := []struct {
		name string
		body string
		same bool
	}{
		{
			name: "task order reversed",
			same: true,
			body: `{"mode": "weakly-hard", "diameter": 3,
			  "tasks": [
			    {"name": "act",   "node": "n2", "wcet": 300},
			    {"name": "ctrl",  "node": "n1", "wcet": 2000},
			    {"name": "sense", "node": "n0", "wcet": 500}
			  ],
			  "edges": [
			    {"from": "sense", "to": "ctrl", "width": 8},
			    {"from": "ctrl",  "to": "act",  "width": 4}
			  ],
			  "whStatistic": {"type": "synthetic"},
			  "whConstraints": {"act": {"misses": 10, "window": 40}}}`,
		},
		{
			name: "edge order reversed",
			same: true,
			body: `{"mode": "weakly-hard", "diameter": 3,
			  "tasks": [
			    {"name": "sense", "node": "n0", "wcet": 500},
			    {"name": "ctrl",  "node": "n1", "wcet": 2000},
			    {"name": "act",   "node": "n2", "wcet": 300}
			  ],
			  "edges": [
			    {"from": "ctrl",  "to": "act",  "width": 4},
			    {"from": "sense", "to": "ctrl", "width": 8}
			  ],
			  "whStatistic": {"type": "synthetic"},
			  "whConstraints": {"act": {"misses": 10, "window": 40}}}`,
		},
		{
			name: "both reordered, keys shuffled",
			same: true,
			body: `{"whConstraints": {"act": {"window": 40, "misses": 10}},
			  "whStatistic": {"type": "synthetic"},
			  "edges": [
			    {"width": 4, "to": "act", "from": "ctrl"},
			    {"width": 8, "to": "ctrl", "from": "sense"}
			  ],
			  "tasks": [
			    {"wcet": 2000, "name": "ctrl", "node": "n1"},
			    {"wcet": 300, "name": "act", "node": "n2"},
			    {"wcet": 500, "name": "sense", "node": "n0"}
			  ],
			  "diameter": 3, "mode": "weakly-hard"}`,
		},
		{name: "diameter changed", same: false, body: pipelineSpec(4)},
		{
			name: "edge width changed",
			same: false,
			body: strings.Replace(base, `"width": 8`, `"width": 9`, 1),
		},
		{
			name: "constraint changed",
			same: false,
			body: strings.Replace(base, `"misses": 10`, `"misses": 9`, 1),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			same, err := sameAs(base, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if same != tc.same {
				t.Errorf("fingerprint equality = %v, want %v", same, tc.same)
			}
		})
	}
}
