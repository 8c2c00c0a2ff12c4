package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"parcolor"
)

// CanceledTotal reports how many requests ended by client disconnect.
func (s *Server) CanceledTotal() int64 { return s.canceled.Load() }

// TestClientDisconnectCancelsSolve pins the request-path cancellation
// contract: a client dropping the connection mid-solve must cancel the
// underlying Solver.Solve promptly (riding the solver's fast-abort
// behavior), release the admission slot, and leave no goroutines behind.
//
// The promptness bound is self-calibrating: the same instance is solved
// to completion first, and the slot must come free in under half that
// wall time after the disconnect (the solver's measured abort is ~25×
// faster than completion, so ½ is a robust margin).
func TestClientDisconnectCancelsSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second solve")
	}
	s, err := New(Config{Workers: 2, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	const n, seed = 30000, 11
	// Calibrate: the uncancelled wall time of this exact solve.
	g := parcolor.GenerateGraph("powerlaw", n, seed)
	in := parcolor.TrivialPalettes(g)
	sv, err := parcolor.NewSolver(parcolor.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	calStart := time.Now()
	if _, err := sv.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	fullWall := time.Since(calStart)
	if fullWall < 200*time.Millisecond {
		t.Skipf("solve too fast to observe cancellation (%s)", fullWall)
	}

	goroutinesBefore := runtime.NumGoroutine()

	body, _ := json.Marshal(SolveRequest{
		Graph:     GraphSpec{Generator: "powerlaw", N: n, Seed: seed},
		Algorithm: "deterministic",
		NoCache:   true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Let the solve get well underway, then drop the connection.
	waitFor(t, 10*time.Second, func() bool { return s.Inflight() == 1 })
	time.Sleep(100 * time.Millisecond)
	cancelTime := time.Now()
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite cancellation")
	}

	// The slot must come free far faster than the solve would have run.
	waitFor(t, fullWall/2, func() bool { return s.Inflight() == 0 })
	aborted := time.Since(cancelTime)
	t.Logf("full solve %s; slot free %s after disconnect", fullWall.Round(time.Millisecond), aborted.Round(time.Millisecond))

	waitFor(t, 5*time.Second, func() bool { return s.CanceledTotal() >= 1 })

	// No goroutine leak: everything the request spawned (solver workers,
	// handler) must wind down. The idle HTTP keep-alive machinery is
	// flushed first; a small slack absorbs runtime background goroutines.
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+3
	})
}

// TestDisconnectWhileQueuedReleasesQueue: a client that gives up while
// waiting for a slot must leave the queue, counting as canceled — not
// occupy it until its turn comes.
func TestDisconnectWhileQueuedReleasesQueue(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxInflight: 1, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Occupy the only slot with a slow (~400ms) solve.
	slowBody, _ := json.Marshal(SolveRequest{
		Graph:     GraphSpec{Generator: "powerlaw", N: 30000, Seed: 21},
		Algorithm: "deterministic",
		NoCache:   true,
	})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(slowBody))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return s.Inflight() == 1 })

	// Queue a second request, then abandon it.
	ctx, cancel := context.WithCancel(context.Background())
	qBody, _ := json.Marshal(SolveRequest{
		Graph:     GraphSpec{Generator: "gnp-sparse", N: 500, Seed: 22},
		Algorithm: "deterministic",
		NoCache:   true,
	})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/solve", bytes.NewReader(qBody))
	req.Header.Set("Content-Type", "application/json")
	qErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		qErr <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return s.QueueDepth() == 1 })
	cancel()
	if err := <-qErr; err == nil {
		t.Fatal("queued request succeeded despite cancellation")
	}
	waitFor(t, 5*time.Second, func() bool { return s.QueueDepth() == 0 })
	waitFor(t, 5*time.Second, func() bool { return s.CanceledTotal() >= 1 })
	<-slowDone
}
