// Package journal persists the serve tier's solution cache across
// restarts: an append-only file of checksummed records that is replayed
// at startup, so a restarted instance serves its corpus from disk
// instead of re-solving it.
//
// Format: each record is framed as
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC32 (IEEE) of the payload
//	payload — the JSON rendering of Record
//
// The framing is what makes replay crash-safe without fsync-per-write
// discipline:
//
//   - a torn tail (the process died mid-append) shows up as a record
//     whose header or payload runs past EOF; replay stops there,
//     reports Stats.Truncated, and OpenReplay truncates the file back
//     to the last whole record so the next append continues a valid
//     log;
//   - a corrupt record in the middle (bit rot, partial page write that
//     later appends ran past) fails its CRC; replay skips exactly that
//     record — the length field still frames it — and counts it in
//     Stats.Skipped.
//
// Replay is sequential and idempotent: applying records in order onto
// an empty cache reproduces the pre-crash cache byte for byte (callers
// re-put each record; last write wins, exactly like the live path).
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Record is one journaled cache entry: the canonical spec fingerprint
// and the cached response body verbatim. Replay ignores fields it does
// not know, so journals written by earlier versions, whose records carry
// two more fields, replay unchanged.
type Record struct {
	Key  string          `json:"key"`
	Body json.RawMessage `json:"body"`
}

// Stats summarizes one replay pass.
type Stats struct {
	// Replayed counts records delivered to the callback.
	Replayed int
	// Skipped counts records whose checksum failed; they were dropped
	// and replay continued at the next frame.
	Skipped int
	// Truncated reports a torn tail: the file ended inside a record.
	// OpenReplay heals it by truncating back to the last whole record.
	Truncated bool
}

// maxRecordBytes bounds a single record. A length field above it is
// treated as a torn/corrupt tail rather than an instruction to allocate
// gigabytes: replay stops there.
const maxRecordBytes = 64 << 20

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Journal is an open, append-positioned log. Safe for concurrent
// Append from multiple goroutines.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
}

// OpenReplay opens (creating if absent) the journal at path, replays
// every intact record into fn in append order, heals a torn tail, and
// returns the journal positioned for appending. fn must not retain
// rec.Body past the call unless it copies it (the replay loop reuses
// no buffers today, but the contract keeps that an implementation
// detail).
func OpenReplay(path string, fn func(rec Record)) (*Journal, Stats, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Stats{}, err
	}
	stats, good, err := replay(f, fn)
	if err != nil {
		f.Close()
		return nil, stats, err
	}
	// Heal a torn tail so subsequent appends extend a valid log rather
	// than burying new records behind garbage no replay will pass.
	if stats.Truncated {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, stats, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, stats, err
	}
	return &Journal{f: f, path: path}, stats, nil
}

// Replay reads the journal at path without opening it for writing —
// the inspection/testing entry point. A missing file replays empty.
func Replay(path string, fn func(rec Record)) (Stats, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return Stats{}, nil
	}
	if err != nil {
		return Stats{}, err
	}
	defer f.Close()
	stats, _, err := replay(f, fn)
	return stats, err
}

// replay scans f from the start, returning the offset just past the
// last whole frame (the truncation point for healing).
func replay(f *os.File, fn func(rec Record)) (Stats, int64, error) {
	var stats Stats
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return stats, 0, err
	}
	var good int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return stats, good, nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				stats.Truncated = true
				return stats, good, nil // torn header
			}
			return stats, good, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxRecordBytes {
			// A zeroed or absurd length is indistinguishable from a torn
			// write; there is no trustworthy frame to skip over.
			stats.Truncated = true
			return stats, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				stats.Truncated = true
				return stats, good, nil // torn payload
			}
			return stats, good, err
		}
		good += int64(8 + n)
		if crc32.ChecksumIEEE(payload) != sum {
			stats.Skipped++
			continue // the frame was whole, only its content rotted
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			// Checksummed-but-unparseable means a writer bug or a foreign
			// file; treat like corruption rather than failing the whole
			// replay.
			stats.Skipped++
			continue
		}
		stats.Replayed++
		if fn != nil {
			fn(rec)
		}
	}
}

// Append writes one record durably enough for the crash model above:
// the frame is written with a single Write call, so a crash leaves
// either no trace or a torn tail that the next OpenReplay heals.
func (j *Journal) Append(rec Record) error {
	frame, err := encode(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	_, err = j.f.Write(frame)
	return err
}

// Rewrite atomically replaces the journal's contents with exactly recs
// (write to a temp file in the same directory, fsync, rename) — the
// compaction path: a restarted server rewrites the log to its live
// cache, dropping evicted and superseded entries accumulated across
// previous runs.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	tmp, err := os.CreateTemp(dirOf(j.path), ".journal-compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	for _, rec := range recs {
		frame, err := encode(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return err
	}
	// Swap the append handle onto the new file.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	return nil
}

// Sync flushes the log to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.f.Sync()
}

// Close syncs and closes the log. Further Appends return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

func encode(rec Record) ([]byte, error) {
	if rec.Key == "" {
		return nil, fmt.Errorf("journal: record without key")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds the %d byte frame limit", len(payload), maxRecordBytes)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
