// Command colord is the coloring-as-a-service daemon: an HTTP front end
// over the reusable parcolor.Solver pool with bounded-queue admission
// control (429 + Retry-After under overload), a content-addressed
// instance cache, per-request deadlines with client-disconnect
// cancellation, and trace-fed metrics endpoints. See internal/serve for
// the API and the admission/cache model.
//
// Usage:
//
//	colord -addr :8080 -max-inflight 8 -max-queue 32 -cache-bytes 67108864
//
// Endpoints: POST /v1/solve, GET /healthz, GET /metrics, GET /stats.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parcolor/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "per-solver worker goroutines (0 = GOMAXPROCS)")
		maxInflight = flag.Int("max-inflight", 0, "concurrent solves (0 = GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "admission queue watermark (0 = 4x max-inflight)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request solve deadline (requests may lower it)")
		cacheBytes  = flag.Int64("cache-bytes", 64<<20, "content-addressed cache budget in bytes (negative disables)")
		maxNodes    = flag.Int("max-nodes", 2_000_000, "largest accepted instance")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight requests")
	)
	flag.Parse()

	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *timeout,
		CacheBytes:     *cacheBytes,
		MaxNodes:       *maxNodes,
	})
	if err != nil {
		log.Fatalf("colord: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("colord: %v", err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("colord: %v — draining for up to %s", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("colord: shutdown: %v", err)
		}
	}()

	// The bound address, so a port-0 listen (-addr 127.0.0.1:0) can be found.
	fmt.Fprintf(os.Stderr, "colord: listening on %s (timeout %s, cache %dMiB)\n",
		ln.Addr(), *timeout, *cacheBytes>>20)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("colord: %v", err)
	}
	<-done
}
