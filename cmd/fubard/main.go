// Command fubard is the FUBAR controller daemon: a long-running
// HTTP+JSON service hosting many named tenants, each an isolated
// (topology, traffic matrix) optimization instance wrapped in a
// fubar.Session with its own worker budget and telemetry registry.
//
//	fubard -listen :8080 -max-workers 8
//
// API (see DESIGN.md "Daemon & multi-tenancy"):
//
//	POST   /v1/tenants                  {"id":"a","preset":"hebench","seed":1,"workers":2}
//	GET    /v1/tenants                  list
//	GET    /v1/tenants/{id}             info
//	POST   /v1/tenants/{id}/optimize    run one optimization, returns the solution summary
//	GET    /v1/tenants/{id}/replay      ?scenario=diurnal&epochs=64&mode=closed — JSONL epoch stream
//	GET    /v1/tenants/{id}/trajectory  downsampled series of the last replay
//	GET    /v1/tenants/{id}/metrics     the tenant's Prometheus exposition
//	GET    /v1/tenants/{id}/trace       the tenant's span stream
//	DELETE /v1/tenants/{id}             release the tenant
//	GET    /metrics, /trace, /debug/pprof/*, /healthz — daemon-level
//
// SIGINT/SIGTERM drains: in-flight optimizations and replay streams end
// at their next epoch boundary via context cancellation, streams flush
// a final error line, tenants' control planes are released, and the
// listener closes.
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

	"fubar"
	"fubar/internal/telemetry"
)

func main() {
	var (
		listen         = flag.String("listen", ":8080", "HTTP listen address")
		maxWorkers     = flag.Int("max-workers", 0, "global worker-token cap shared by all tenants (0 = GOMAXPROCS)")
		defaultWorkers = flag.Int("default-workers", 1, "worker budget of tenants that don't request one")
		drain          = flag.Duration("drain", 30*time.Second, "max wait for in-flight work on shutdown")
		quiet          = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	logger := slog.New(slog.DiscardHandler)
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	srv, err := fubar.NewDaemon(fubar.DaemonConfig{
		MaxWorkers:     *maxWorkers,
		DefaultWorkers: *defaultWorkers,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fubard: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := telemetry.NewServer(srv.Handler())
	httpSrv.Addr = *listen
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("fubard listening", "addr", *listen, "max_workers", srv.MaxWorkers())

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "fubard: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("fubard draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "fubard: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "fubard: %v\n", err)
	}
	logger.Info("fubard stopped")
}
