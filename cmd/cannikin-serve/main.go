// Command cannikin-serve runs the multi-tenant training service: one
// goodput-driven scheduler admitting, queueing, and running many
// concurrent training jobs over a shared simulated device pool.
//
// Jobs are submitted as JSON run-spec documents (the same format as
// -spec files of the cannikin command) and stream their epochs back as
// NDJSON:
//
//	cannikin-serve -addr 127.0.0.1:8080 -devices 8 &
//	curl -s -X POST localhost:8080/jobs -d '{"mlp":true,"mlp_batches":[8,4],"epochs":3,"seed":7}'
//	curl -s localhost:8080/jobs/job-0/stream
//	curl -s localhost:8080/stats
//	curl -s -X DELETE localhost:8080/jobs/job-0
//
// On SIGTERM/SIGINT the server stops admitting, cancels queued jobs, lets
// running jobs finish (bounded by -drain-timeout), and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cannikin/internal/jobs"
	"cannikin/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cannikin-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("cannikin-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	devices := fs.Int("devices", 8, "device pool size")
	models := fs.String("models", "", "comma-separated GPU models cycled across the pool (default: a heterogeneous mix)")
	poolSeed := fs.Uint64("pool-seed", 1, "pool random seed (device and per-job speed jitter)")
	jitter := fs.Float64("jitter", 0.05, "log-space sigma of device/job speed jitter (0 = none)")
	maxQueue := fs.Int("max-queue", 64, "bounded queue depth; submissions beyond it get HTTP 429")
	policy := fs.String("policy", jobs.PolicyGoodput, `allocator: "goodput" (marginal goodput), or FIFO without backfill over "equal" (first free devices), "heterogeneous" (fastest free devices) or "homogeneous" (fastest model with enough free)`)
	retryAfter := fs.Duration("retry-after", 500*time.Millisecond, "Retry-After hint on queue-full rejections")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		Pool: jobs.PoolConfig{
			Devices: *devices,
			Seed:    *poolSeed,
			Jitter:  *jitter,
		},
		MaxQueue:   *maxQueue,
		Policy:     *policy,
		RetryAfter: *retryAfter,
	}
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			cfg.Pool.Models = append(cfg.Pool.Models, strings.TrimSpace(m))
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Print the resolved address (meaningful with port 0) on its own line
	// so harnesses can scrape it.
	fmt.Fprintf(w, "listening on %s (%d devices, policy %s)\n", ln.Addr(), *devices, *policy)

	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(w, "received %s, draining (timeout %s)\n", sig, *drainTimeout)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-errCh // Serve has returned ErrServerClosed
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if drainErr != nil {
		fmt.Fprintf(w, "drain timeout: running jobs were canceled\n")
	} else {
		fmt.Fprintf(w, "drained cleanly\n")
	}
	return nil
}
