package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func rec(i int) Record {
	return Record{
		Key:  fmt.Sprintf("key-%03d", i),
		Body: json.RawMessage(fmt.Sprintf(`{"makespanUS":%d,"rounds":[%d]}`, 1000+i, i)),
	}
}

// collect replays path into a slice.
func collect(t *testing.T, path string) ([]Record, Stats) {
	t.Helper()
	var got []Record
	stats, err := Replay(path, func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, stats
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, stats, err := OpenReplay(path, func(Record) { t.Error("fresh journal replayed records") })
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{}) {
		t.Errorf("fresh journal stats = %+v", stats)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, path)
	if len(got) != n || stats.Replayed != n || stats.Skipped != 0 || stats.Truncated {
		t.Fatalf("replayed %d records, stats %+v", len(got), stats)
	}
	for i, r := range got {
		want := rec(i)
		if r.Key != want.Key || string(r.Body) != string(want.Body) {
			t.Errorf("record %d mismatch: %+v", i, r)
		}
	}
	if err := j.Append(rec(99)); err != ErrClosed {
		t.Errorf("append after close: %v, want ErrClosed", err)
	}
}

// TestTruncatedTailHealed: a crash mid-append leaves a torn final
// record. Replay keeps every whole record, reports Truncated, and
// OpenReplay truncates the tail so subsequent appends produce a log
// that replays clean — and the replayed state is byte-identical to the
// pre-crash state.
func TestTruncatedTailHealed(t *testing.T) {
	for _, cut := range []int{1, 4, 7, 9, 11} { // into header and into payload
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.journal")
			j, _, err := OpenReplay(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			whole, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(rec(3)); err != nil {
				t.Fatal(err)
			}
			j.Close()
			// Crash: the 4th record only partially reached disk.
			if err := os.Truncate(path, whole.Size()+int64(cut)); err != nil {
				t.Fatal(err)
			}

			var replayed []Record
			j2, stats, err := OpenReplay(path, func(r Record) { replayed = append(replayed, r) })
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Truncated || stats.Replayed != 3 || stats.Skipped != 0 {
				t.Fatalf("stats after torn tail = %+v, want Truncated with 3 replayed", stats)
			}
			for i, r := range replayed {
				if want := rec(i); string(r.Body) != string(want.Body) || r.Key != want.Key {
					t.Errorf("pre-crash record %d not byte-identical: %+v", i, r)
				}
			}
			// The healed log accepts appends and replays clean.
			if err := j2.Append(rec(4)); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			got, stats := collect(t, path)
			if stats.Truncated || stats.Skipped != 0 || len(got) != 4 {
				t.Fatalf("healed log: %d records, stats %+v", len(got), stats)
			}
			if got[3].Key != rec(4).Key {
				t.Errorf("appended record lost after heal: %+v", got[3])
			}
		})
	}
}

// TestCorruptEntrySkipped: a checksum-failing record in the middle of
// the log is skipped — counted, not fatal — and every other record
// survives bit-exact.
func TestCorruptEntrySkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, _, err := OpenReplay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{0}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(path)
		offsets = append(offsets, st.Size())
	}
	j.Close()

	// Flip a byte inside record 2's payload (past its 8-byte header).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, offsets[2]+8+5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, stats := collect(t, path)
	if stats.Skipped != 1 || stats.Truncated || stats.Replayed != 4 {
		t.Fatalf("stats = %+v, want 1 skipped / 4 replayed", stats)
	}
	wantKeys := []string{"key-000", "key-001", "key-003", "key-004"}
	for i, r := range got {
		if r.Key != wantKeys[i] {
			t.Errorf("survivor %d = %s, want %s", i, r.Key, wantKeys[i])
		}
	}
}

// TestZeroLengthTailStops: a zeroed header (preallocated-but-unwritten
// tail, as after some filesystem crashes) reads as truncation, not an
// infinite loop or a giant allocation.
func TestZeroLengthTailStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, _, err := OpenReplay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(rec(0))
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write(make([]byte, 64)) // zero-filled garbage tail
	f.Close()
	got, stats := collect(t, path)
	if len(got) != 1 || !stats.Truncated {
		t.Fatalf("zero tail: %d records, stats %+v", len(got), stats)
	}
}

func TestRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, _, err := OpenReplay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		j.Append(rec(i))
	}
	// Compact to the "live" subset, then keep appending.
	if err := j.Rewrite([]Record{rec(7), rec(9)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(11)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, stats := collect(t, path)
	if stats.Skipped != 0 || stats.Truncated {
		t.Fatalf("compacted log stats = %+v", stats)
	}
	wantKeys := []string{"key-007", "key-009", "key-011"}
	if len(got) != len(wantKeys) {
		t.Fatalf("compacted log has %d records, want %d", len(got), len(wantKeys))
	}
	for i, r := range got {
		if r.Key != wantKeys[i] {
			t.Errorf("record %d = %s, want %s", i, r.Key, wantKeys[i])
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	stats, err := Replay(filepath.Join(t.TempDir(), "nope.journal"), nil)
	if err != nil || stats != (Stats{}) {
		t.Fatalf("missing file: stats %+v err %v", stats, err)
	}
}

func TestAppendRejectsKeylessRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, _, err := OpenReplay(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(Record{Body: json.RawMessage(`{}`)}); err == nil {
		t.Error("keyless record accepted")
	}
}
