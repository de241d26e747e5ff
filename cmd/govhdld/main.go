// Command govhdld is the multi-tenant VHDL simulation server: a
// long-running HTTP service that accepts designs and stimulus, elaborates
// each distinct design once into a byte-bounded LRU cache, and multiplexes
// concurrent streaming simulation sessions over a bounded worker pool.
//
// Start it and submit the FSM benchmark:
//
//	govhdld -listen :9190 &
//	curl -s -X POST localhost:9190/v1/sessions \
//	    -d '{"circuit":"fsm","protocol":"mixed","workers":2}'
//	curl -sN localhost:9190/v1/sessions/s1/trace
//
// Submit VHDL sources (the second submit of the same sources is a cache
// hit: no re-elaboration):
//
//	curl -s -X POST localhost:9190/v1/sessions -d '{
//	    "top": "tb",
//	    "sources": [{"name": "tb.vhd", "text": "entity tb is ..."}],
//	    "protocol": "dynamic", "workers": 4, "until": "10us"}'
//
// See /metrics for cache hit/miss counters, pool occupancy and per-session
// result statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"govhdl/internal/server"
)

func main() {
	listen, cfg := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(*listen, *cfg); err != nil {
		fmt.Fprintln(os.Stderr, "govhdld:", err)
		os.Exit(1)
	}
}

// registerFlags defines govhdld's flags on fs: the listen address and the
// server configuration they fill.
func registerFlags(fs *flag.FlagSet) (listen *string, cfg *server.Config) {
	cfg = new(server.Config)
	listen = fs.String("listen", ":9190", "HTTP listen address")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 64<<20, "design cache bound in bytes (LRU eviction)")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 4, "simulation sessions running concurrently")
	fs.IntVar(&cfg.QueueDepth, "queue", 16, "admitted sessions waiting for a slot before submits get 429")
	fs.IntVar(&cfg.MaxWorkers, "max-workers", 8, "per-session worker cap")
	fs.DurationVar(&cfg.DefaultDeadline, "default-deadline", 2*time.Minute, "deadline for sessions that request none")
	fs.DurationVar(&cfg.MaxDeadline, "max-deadline", 10*time.Minute, "largest per-session deadline a request may ask for")
	return listen, cfg
}

func run(listen string, cfg server.Config) error {
	sv := server.New(cfg)
	httpSrv := &http.Server{Addr: listen, Handler: sv.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("govhdld: listening on %s (pool %d, queue %d, cache %d bytes)\n",
			listen, cfg.MaxSessions, cfg.QueueDepth, cfg.CacheBytes)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("govhdld: %v; draining sessions and shutting down\n", sig)
	}

	// Cancel every live session, then close the listener gracefully so
	// streaming clients see their final chunks.
	sv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
