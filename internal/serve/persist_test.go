package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/netdag/netdag/internal/core"
	"github.com/netdag/netdag/internal/journal"
	"github.com/netdag/netdag/internal/spec"
)

// TestJournalRestoreServesByteIdentical: a restarted instance replays
// its journal and serves the previous process's schedules as cache
// hits, byte for byte.
func TestJournalRestoreServesByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")

	s1 := New(Config{})
	if _, err := s1.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	bodies := map[int]string{}
	for _, d := range []int{3, 4, 5} {
		r := postSolve(t, s1, pipelineSpec(d), "")
		if r.Code != http.StatusOK {
			t.Fatalf("diameter %d: status %d", d, r.Code)
		}
		bodies[d] = r.Body.String()
	}
	if got := s1.metrics.journalAppended.Load(); got != 3 {
		t.Fatalf("journalAppended = %d, want 3", got)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server, same journal.
	s2 := New(Config{})
	stats, err := s2.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 3 || stats.Skipped != 0 || stats.Truncated {
		t.Fatalf("replay stats = %+v, want 3 clean replays", stats)
	}
	if s2.metrics.journalReplayed.Load() != 3 {
		t.Error("replay not surfaced in metrics")
	}
	for _, d := range []int{3, 4, 5} {
		r := postSolve(t, s2, pipelineSpec(d), "")
		if got := r.Header().Get(cacheHeader); got != "hit" {
			t.Errorf("diameter %d after restart: cache header %q, want hit", d, got)
		}
		if r.Body.String() != bodies[d] {
			t.Errorf("diameter %d after restart: body differs from the original solve", d)
		}
	}
	if s2.metrics.cacheMisses.Load() != 0 {
		t.Error("restart re-solved journaled specs")
	}
	s2.CloseJournal()
}

// TestJournalAttachCompacts: replay applies the cache's LRU bound, and
// attach rewrites the journal down to the resident set — the file does
// not grow without bound across restarts.
func TestJournalAttachCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")

	s1 := New(Config{})
	if _, err := s1.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{3, 4, 5} {
		postSolve(t, s1, pipelineSpec(d), "")
	}
	s1.CloseJournal()

	s2 := New(Config{CacheEntries: 1})
	stats, err := s2.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 3 {
		t.Fatalf("replayed = %d, want 3 (LRU applies after replay, not during read)", stats.Replayed)
	}
	if s2.cache.len() != 1 {
		t.Fatalf("resident = %d, want 1", s2.cache.len())
	}
	// The newest record (diameter 5) survives the bound.
	if got := postSolve(t, s2, pipelineSpec(5), "").Header().Get(cacheHeader); got != "hit" {
		t.Errorf("newest journaled entry: cache header %q, want hit", got)
	}
	s2.CloseJournal()

	var keys []string
	st, err := journal.Replay(path, func(rec journal.Record) { keys = append(keys, rec.Key) })
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 || len(keys) != 1 {
		t.Fatalf("compacted journal holds %d records, want 1", st.Replayed)
	}
}

// TestJournalCorruptionSurvivesThroughServe: flipping a byte mid-file
// and tearing the tail costs exactly the damaged records; the rest
// replay and serve, and the damage is visible in metrics.
func TestJournalCorruptionSurvivesThroughServe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")

	s1 := New(Config{})
	if _, err := s1.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	r3 := postSolve(t, s1, pipelineSpec(3), "")
	postSolve(t, s1, pipelineSpec(4), "")
	postSolve(t, s1, pipelineSpec(5), "")
	s1.CloseJournal()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF // corrupt a middle record
	raw = raw[:len(raw)-7]  // tear the tail mid-record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{})
	stats, err := s2.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped == 0 || !stats.Truncated {
		t.Fatalf("replay stats = %+v, want skipped records and a healed tail", stats)
	}
	if s2.metrics.journalSkipped.Load() == 0 || s2.metrics.journalTruncated.Load() != 1 {
		t.Error("journal damage not surfaced in metrics")
	}
	// The first record predates the damage and must serve byte-identical.
	r := postSolve(t, s2, pipelineSpec(3), "")
	if got := r.Header().Get(cacheHeader); got != "hit" {
		t.Fatalf("undamaged record: cache header %q, want hit", got)
	}
	if r.Body.String() != r3.Body.String() {
		t.Error("undamaged record served different bytes after crash recovery")
	}
	s2.CloseJournal()
}

// journalFrame frames one record payload the way package journal does:
// little-endian length, little-endian CRC32 (IEEE), payload.
func journalFrame(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// journalFieldSets returns, per record in the journal at path, its JSON
// field names in sorted order.
func journalFieldSets(t *testing.T, path string) [][]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]string
	for len(raw) > 0 {
		if len(raw) < 8 {
			t.Fatalf("torn journal header: %d bytes left", len(raw))
		}
		n := int(binary.LittleEndian.Uint32(raw[0:4]))
		if len(raw) < 8+n {
			t.Fatalf("torn journal payload: %d of %d bytes", len(raw)-8, n)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw[8:8+n], &fields); err != nil {
			t.Fatal(err)
		}
		var names []string
		for name := range fields {
			names = append(names, name)
		}
		sort.Strings(names)
		sets = append(sets, names)
		raw = raw[8+n:]
	}
	return sets
}

// TestJournalReplaysRecordsWithRetiredFields: records written by
// earlier versions carry two more fields, "struct" and "makespanUS",
// which fed a structural warm-start index. Such a journal replays as it
// is and serves byte-identical hits, and every record the server writes
// from then on carries only the key and the body.
func TestJournalReplaysRecordsWithRetiredFields(t *testing.T) {
	ref := New(Config{})
	var old bytes.Buffer
	bodies := map[int]string{}
	for _, d := range []int{3, 4, 5} {
		r := postSolve(t, ref, pipelineSpec(d), "")
		if r.Code != http.StatusOK {
			t.Fatalf("diameter %d: status %d", d, r.Code)
		}
		bodies[d] = r.Body.String()
		var out spec.ScheduleOut
		if err := json.Unmarshal(r.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(map[string]any{
			"key":        r.Header().Get(fingerprintHdr),
			"struct":     "5d41402abc4b2a76b9719d911017c5925d41402abc4b2a76b9719d911017c592",
			"makespanUS": out.MakespanUS,
			"body":       json.RawMessage(r.Body.Bytes()),
		})
		if err != nil {
			t.Fatal(err)
		}
		old.Write(journalFrame(payload))
	}
	path := filepath.Join(t.TempDir(), "cache.journal")
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{})
	stats, err := s.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 3 || stats.Skipped != 0 || stats.Truncated {
		t.Fatalf("replay stats = %+v, want 3 clean replays", stats)
	}
	for _, d := range []int{3, 4, 5} {
		r := postSolve(t, s, pipelineSpec(d), "")
		if got := r.Header().Get(cacheHeader); got != "hit" {
			t.Errorf("diameter %d: cache header %q, want hit", d, got)
		}
		if r.Body.String() != bodies[d] {
			t.Errorf("diameter %d: replayed body differs from the original solve", d)
		}
	}
	if r := postSolve(t, s, pipelineSpec(6), ""); r.Code != http.StatusOK {
		t.Fatalf("fresh solve: status %d", r.Code)
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Attach compacted the three old records; the fresh solve appended a
	// fourth. None keeps a retired field.
	sets := journalFieldSets(t, path)
	if len(sets) != 4 {
		t.Fatalf("journal holds %d records, want 4", len(sets))
	}
	for i, names := range sets {
		if len(names) != 2 || names[0] != "body" || names[1] != "key" {
			t.Errorf("record %d has fields %v, want [body key]", i, names)
		}
	}
}

// TestIncompleteResultNeverCachedOrJournaled: a deadline-interrupted
// incumbent is neither cached nor journaled, so no later request (nor a
// restarted instance) is ever answered from an unproven result. The
// repeat solves afresh, and only its complete schedule is kept.
func TestIncompleteResultNeverCachedOrJournaled(t *testing.T) {
	first := true
	s := New(Config{
		SolveFn: func(ctx context.Context, p *core.Problem) (*core.Schedule, error) {
			if first {
				first = false
				sched, err := core.SolveContext(context.Background(), p)
				if err != nil {
					return nil, err
				}
				sched.Optimal = false
				return sched, core.ErrCanceled // incumbent at deadline
			}
			return core.SolveContext(ctx, p)
		},
	})
	path := filepath.Join(t.TempDir(), "cache.journal")
	if _, err := s.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	r1 := postSolve(t, s, pipelineSpec(3), "")
	if r1.Code != http.StatusOK || r1.Header().Get(incompleteHeader) == "" {
		t.Fatalf("prime: status %d incomplete %q", r1.Code, r1.Header().Get(incompleteHeader))
	}
	if s.cache.len() != 0 || s.metrics.journalAppended.Load() != 0 {
		t.Errorf("incumbent kept: %d cached, %d journaled", s.cache.len(), s.metrics.journalAppended.Load())
	}
	r2 := postSolve(t, s, pipelineSpec(3), "")
	if got := r2.Header().Get(cacheHeader); got != "miss" {
		t.Errorf("repeat after an incomplete solve: cache header %q, want miss", got)
	}
	if got := r2.Header().Get(incompleteHeader); got != "" {
		t.Errorf("repeat marked incomplete %q", got)
	}
	var out spec.ScheduleOut
	if err := json.Unmarshal(r2.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Optimal {
		t.Error("repeat answered with a non-optimal schedule")
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	st, err := journal.Replay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 || s.metrics.journalAppended.Load() != 1 {
		t.Errorf("journal: %d appended, %d on disk, want only the complete solve", s.metrics.journalAppended.Load(), st.Replayed)
	}
}
