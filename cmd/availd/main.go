// Command availd runs the resident availability service: the analytic
// models, the Monte Carlo what-if engine and the live soak testbed behind
// an HTTP API, built to the robustness standard the models themselves
// measure — bounded admission with explicit load shedding, per-request
// deadlines with honest partial results, per-request panic isolation, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	availd [-addr host:port] [-max-concurrent n] [-max-queue n]
//	       [-timeout d] [-max-timeout d] [-drain d] [-cache n]
//	       [-metrics file.json] [-store dir]
//
// Endpoints:
//
//	GET /api/v1/analytic    — closed-form evaluation (memoized)
//	GET /api/v1/mc          — Monte Carlo what-if sweep (gated, deadlined)
//	GET /api/v1/mc/stream   — MC sweep as an SSE stream of CI snapshots
//	GET /api/v1/soak        — virtual-time live soak (gated, deadlined)
//	GET /api/v1/soak/stream — soak as an SSE stream of progress snapshots
//	GET /metrics            — telemetry registry, Prometheus text format
//	GET /healthz            — liveness
//	GET /readyz             — readiness (503 while draining)
//
// With -store completed MC responses persist in a content-addressed
// on-disk cache keyed by the canonical request digest.
//
// On SIGINT/SIGTERM the server stops accepting, lets in-flight requests
// finish within the drain budget (cancelling stragglers, which answer
// truncated partial estimates), writes the final metrics snapshot when
// -metrics was given, and exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdnavail/internal/server"
	"sdnavail/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availd:", err)
		os.Exit(1)
	}
}

// run parses args and serves until ctx is cancelled (the signal path),
// then drains and flushes telemetry. A clean drain returns nil: exit 0.
func run(ctx context.Context, args []string, out io.Writer) error {
	flag := flag.NewFlagSet("availd", flag.ContinueOnError)
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		maxConc = flag.Int("max-concurrent", 0, "max simultaneously executing simulation requests (0 = GOMAXPROCS)")
		maxQ    = flag.Int("max-queue", 0, "max requests waiting for a simulation slot before shedding 429 (0 = 2x max-concurrent)")
		timeout = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTO   = flag.Duration("max-timeout", 2*time.Minute, "ceiling on the per-request ?timeout= override")
		drain   = flag.Duration("drain", 5*time.Second, "graceful-drain budget on shutdown")
		cache   = flag.Int("cache", 4096, "analytic memoization cache entries; also bounds the result store's memo of verified entries")
		metrics = flag.String("metrics", "", "write the final telemetry metrics snapshot as JSON to this file on exit")
		store   = flag.String("store", "", "persistent result store directory (content-addressed cache of completed MC responses)")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Addr:           *addr,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQ,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		DrainTimeout:   *drain,
		CacheSize:      *cache,
		StoreDir:       *store,
	})
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	fmt.Fprintf(out, "availd listening on %s\n", srv.Addr())

	serveErr := srv.Serve(ctx)
	if serveErr != nil {
		// Even a botched drain flushes what telemetry it has before the
		// error surfaces.
		flushMetrics(srv.Telemetry(), *metrics)
		return serveErr
	}
	fmt.Fprintln(out, "availd drained cleanly")
	return flushMetrics(srv.Telemetry(), *metrics)
}

// flushMetrics writes the metrics snapshot when a path was given.
func flushMetrics(tel *telemetry.Telemetry, path string) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(tel.Metrics.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
