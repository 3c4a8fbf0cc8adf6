package serve

import (
	"github.com/netdag/netdag/internal/journal"
)

// AttachJournal gives the solution cache a persistent tier: the
// append-only checksummed journal at path is replayed into the cache
// (so a restarted instance serves its corpus without re-solving it),
// compacted down to the live entries, and then kept appended with
// every complete solve.
//
// Call before serving traffic: the journal pointer is read without
// synchronization on the solve path. Replay applies the cache's own
// LRU policy, so a journal larger than CacheEntries replays into the
// newest CacheEntries records; compaction then shrinks the file to
// exactly the resident set, bounding journal growth across restarts.
// Torn tails are healed and corrupt records skipped (see package
// journal); both are surfaced in the returned stats and the
// netdag_journal_* metrics.
func (s *Server) AttachJournal(path string) (journal.Stats, error) {
	j, stats, err := journal.OpenReplay(path, func(rec journal.Record) {
		s.cache.put(rec.Key, []byte(rec.Body))
	})
	if err != nil {
		return stats, err
	}
	s.metrics.journalReplayed.Add(int64(stats.Replayed))
	s.metrics.journalSkipped.Add(int64(stats.Skipped))
	if stats.Truncated {
		s.metrics.journalTruncated.Add(1)
	}
	if err := j.Rewrite(s.cache.snapshot()); err != nil {
		j.Close()
		return stats, err
	}
	s.journal = j
	s.log.Info("journal attached", "path", path,
		"replayed", stats.Replayed, "skipped", stats.Skipped, "truncated", stats.Truncated,
		"resident", s.cache.len())
	return stats, nil
}

// journalAppend records one complete solve in the persistent tier, if
// one is attached. Append failures are counted and logged, never
// propagated: the response was already computed and the journal is a
// cache of a cache.
func (s *Server) journalAppend(rec journal.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.metrics.journalErrors.Add(1)
		s.log.Error("journal append failed", "key", rec.Key, "err", err)
		return
	}
	s.metrics.journalAppended.Add(1)
}

// CloseJournal syncs and closes the persistent cache tier (no-op when
// none is attached). Call after draining.
func (s *Server) CloseJournal() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}
