// Command netdag-serve runs the NETDAG scheduling service: a JSON API
// that solves problem specs on demand, with a content-addressed solution
// cache, request coalescing, admission control and per-request solve
// deadlines.
//
// Usage:
//
//	netdag-serve [-addr :8080] [-cache 256] [-solves N] [-queue 64]
//	             [-workers 0] [-deadline 0] [-max-deadline 0] [-drain 10s]
//	             [-sessions 8] [-session-deadline 2s] [-session-attempts 3]
//	             [-journal cache.journal]
//
// Endpoints:
//
//	POST   /v1/solve[?deadline=500ms]  spec.File in, spec.ScheduleOut out
//	POST   /v1/solve-batch             {"specs":[...]} in, per-item statuses out
//	POST   /v1/session                 create a long-lived scheduler session
//	GET    /v1/session/{id}            session status snapshot
//	POST   /v1/session/{id}/events     apply one delta event
//	GET    /v1/session/{id}/journal    replayable event journal (?since=N)
//	GET    /v1/session/{id}/feed       streaming JSONL journal feed
//	DELETE /v1/session/{id}            close; answers the final counters
//	GET    /healthz                    200 serving | 503 draining
//	GET    /metrics                    Prometheus text format
//
// SIGINT/SIGTERM drains gracefully: listeners close, in-flight requests
// get -drain to finish (their solves are then canceled and respond with
// incumbents where one exists).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/netdag/netdag/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache", 256, "solution cache capacity (entries)")
	maxSolves := flag.Int("solves", 0, "concurrent solve budget (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 64, "max solves queued for a worker slot before 429")
	workers := flag.Int("workers", 0, "round-assignment search workers per solve (0 = GOMAXPROCS)")
	defDeadline := flag.Duration("deadline", 0, "default per-request solve deadline (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on per-request deadlines (0 = uncapped)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget on SIGTERM")
	maxBody := flag.Int64("max-body", 1<<20, "request body limit (bytes)")
	maxSessions := flag.Int("sessions", 8, "max live scheduler sessions")
	sessDeadline := flag.Duration("session-deadline", 0, "per-attempt re-solve deadline inside a session (0 = library default)")
	sessAttempts := flag.Int("session-attempts", 0, "re-solve attempts before a session degrades (0 = library default)")
	retrySeed := flag.Int64("retry-seed", 0, "jitter seed for 429 Retry-After hints and session re-solve retries (0 = deterministic envelope)")
	journalPath := flag.String("journal", "", "persistent cache journal file (empty = in-memory cache only)")
	batchItems := flag.Int("batch-items", 256, "max specs per /v1/solve-batch request")
	batchBytes := flag.Int64("batch-bytes", 16<<20, "batch request body limit (bytes)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	// baseCtx is the solves' lifetime: it outlives the signal context by
	// the drain budget so in-flight requests can finish, then cancels,
	// interrupting any solve still running.
	baseCtx, cancelSolves := context.WithCancel(context.Background())
	defer cancelSolves()

	srv := serve.New(serve.Config{
		CacheEntries:    *cacheEntries,
		MaxConcurrent:   *maxSolves,
		QueueDepth:      *queueDepth,
		SolveWorkers:    *workers,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		MaxBodyBytes:    *maxBody,
		MaxSessions:     *maxSessions,
		SessionDeadline: *sessDeadline,
		SessionAttempts: *sessAttempts,
		RetrySeed:       *retrySeed,
		MaxBatchItems:   *batchItems,
		MaxBatchBytes:   *batchBytes,
		Logger:          logger,
		BaseContext:     baseCtx,
	})

	if *journalPath != "" {
		if _, err := srv.AttachJournal(*journalPath); err != nil {
			logger.Error("journal attach failed", "path", *journalPath, "err", err)
			os.Exit(1)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errCh:
		logger.Error("listen failed", "err", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	logger.Info("draining", "budget", drain.String())
	srv.SetDraining()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
	srv.CloseSessions() // journals stop growing; feeds end cleanly
	cancelSolves()      // interrupt anything still searching
	if err := srv.CloseJournal(); err != nil {
		logger.Error("journal close", "err", err)
	}
	logger.Info("stopped")
	fmt.Fprintln(os.Stderr, "netdag-serve: drained")
}
