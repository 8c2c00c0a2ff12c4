// Package serve is the coloring-as-a-service HTTP front end: everything
// below the network — the cancellable parcolor.Solver, the trace
// aggregation — already exists; this package puts an admission-controlled,
// cache-fronted request path on top. Each request builds its own Solver
// (cheap: the engines' scratch pools are package-level and shared), so
// its options are range-checked before any other work.
//
// # API
//
//	POST /v1/solve   solve one D1LC instance (SolveRequest → SolveResponse)
//	GET  /healthz    liveness + queue state (JSON)
//	GET  /metrics    plaintext counters, latency quantiles, per-phase trace
//	GET  /stats      the same as JSON; ?window=1 drains the per-window
//	                 trace aggregates (reset-on-read)
//
// # Admission model
//
// Requests that miss the cache pass through a bounded-queue admission
// controller: at most MaxInflight solves run concurrently, at most
// MaxQueue requests wait behind them, and a request arriving with the
// queue at its watermark is answered 429 with a Retry-After estimated
// from an EWMA of recent solve times. Each admitted request rides Solver.Solve(ctx) under
// a per-request deadline, and the request context is the client
// connection's — a disconnect cancels the underlying solve promptly
// (every long loop in the solver checks the context), releasing the slot.
//
// # Content-addressed cache
//
// In front of admission sits a content-addressed instance cache keyed by
// a canonical SHA-256 of (graph content, palette mode, result-affecting
// solve options) — see cachekey.go for the exact canonicalization — and
// LRU-evicted under a byte budget. Because every solver configuration is
// deterministic (fixed seed included), a hit is bit-identical to the
// solve it memoized; repeated-graph traffic never touches the solver.
//
// # Metrics
//
// Server-level counters (requests, rejections, cache hit rate, queue
// depth, inflight, error classes) pair with a streaming log-linear
// latency histogram (p50/p90/p99 without sample retention) and the
// per-phase engine aggregates exported from trace.Collector snapshots.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"parcolor"
)

// errOverloaded marks a queue-watermark rejection (answered 429).
var errOverloaded = errors.New("serve: solve queue full")

// Config sizes the server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers bounds each request's Solver's worker goroutines
	// (0 = GOMAXPROCS).
	Workers int
	// MaxInflight is the number of concurrently running solves
	// (0 = GOMAXPROCS).
	MaxInflight int
	// MaxQueue is the admission watermark: requests allowed to wait for a
	// slot before new arrivals get 429 (0 = 4×MaxInflight).
	MaxQueue int
	// DefaultTimeout is the per-request solve deadline; requests may
	// lower it via timeout_ms, never raise it (0 = 60s).
	DefaultTimeout time.Duration
	// CacheBytes budgets the content-addressed result cache
	// (0 = 64 MiB; negative disables caching).
	CacheBytes int64
	// MaxNodes rejects instances larger than this before any per-node
	// work (0 = 2,000,000). Scaled by maxArcsPerNode, it also bounds a
	// request's arcs and Δ+1 palette entries.
	MaxNodes int
	// MaxBodyBytes bounds the request body (0 = 64 MiB).
	MaxBodyBytes int64
}

func (c *Config) fillDefaults() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 2_000_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
}

// Server is the HTTP front end. Construct with New, mount via Handler
// (or ServeHTTP directly). Safe for concurrent use.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	collector *parcolor.TraceCollector
	cache     *Cache
	adm       *admission
	hist      *Histogram
	start     time.Time

	requests atomic.Int64 // POST /v1/solve arrivals
	solved   atomic.Int64 // completed solver runs (cache misses)
	canceled atomic.Int64 // client disconnects observed mid-request
	timeouts atomic.Int64 // per-request deadline expiries
	failed   atomic.Int64 // 4xx/5xx other than 429 and disconnects
}

// New validates cfg (filling defaults) and returns a ready Server.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("serve: negative workers %d", cfg.Workers)
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		collector: parcolor.NewTraceCollector(),
		cache:     NewCache(cfg.CacheBytes),
		adm:       newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		hist:      &Histogram{},
		start:     time.Now(),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Collector exposes the trace collector shared by every request's Solver.
func (s *Server) Collector() *parcolor.TraceCollector { return s.collector }

// CacheStats exposes the content cache's counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Inflight reports how many solves hold admission slots right now.
func (s *Server) Inflight() int { return int(s.adm.running.Load()) }

// QueueDepth reports how many admitted requests are waiting for a slot.
func (s *Server) QueueDepth() int { return int(s.adm.queued.Load()) }

// CanceledTotal reports how many requests ended by client disconnect.
func (s *Server) CanceledTotal() int64 { return s.canceled.Load() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleSolve is the request path: decode → option checks (the request's
// Solver) → spec checks → canonical cache key → cache probe → admission →
// build → Solve(ctx+deadline) → cache fill → respond.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	start := time.Now()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req SolveRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	paletteMode, err := req.paletteMode()
	if err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	conf, err := req.config()
	if err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// NewSolver range-checks the options, so an out-of-range seed_bits is
	// answered here, before a cache key, a queue slot or a graph build.
	sv, err := parcolor.NewSolver(
		parcolor.WithAlgorithm(conf.alg),
		parcolor.WithSeed(conf.seed),
		parcolor.WithSeedBits(conf.seedBits),
		parcolor.WithBitwise(conf.bitwise),
		parcolor.WithDegreeShard(conf.degreeShard),
		parcolor.WithWorkers(s.cfg.Workers),
		parcolor.WithTrace(s.collector),
	)
	if err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The content address. The spec's form is checked first, so no key
	// is computed for a spec the build would reject. The generator form
	// is addressed by its spec (no materialization needed to probe the
	// cache); the edge-list form is addressed by the built CSR, so the
	// build happens before admission — bounded work, the body size cap
	// has already limited m.
	if err := req.Graph.validate(s.cfg.MaxNodes); err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var g *parcolor.Graph
	var key string
	if req.Graph.Generator != "" {
		key = KeyForGenerator(req.Graph.Generator, req.Graph.N, req.Graph.Seed, paletteMode, conf)
	} else {
		g, err = req.Graph.buildGraph(paletteMode, s.cfg.MaxNodes)
		if err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key = KeyForGraph(g, paletteMode, conf)
	}

	if !req.NoCache {
		if hit, ok := s.cache.Get(key); ok {
			elapsed := time.Since(start)
			s.hist.Observe(elapsed)
			resp := SolveResponse{
				N:              len(hit.Colors),
				M:              hit.M,
				Algorithm:      conf.alg.String(),
				DistinctColors: hit.DistinctColors,
				Rounds:         hit.Rounds,
				Cached:         true,
				CacheKey:       key,
				ElapsedMillis:  float64(elapsed.Nanoseconds()) / 1e6,
			}
			if req.IncludeColors {
				resp.Colors = hit.Colors
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}

	// Cache miss: through the admission gate.
	release, retryAfter, err := s.adm.acquire(r.Context())
	if err == errOverloaded {
		secs := int(retryAfter / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:             "solve queue full, retry later",
			RetryAfterSeconds: secs,
		})
		return
	}
	if err != nil { // client gone while queued
		s.canceled.Add(1)
		return
	}
	defer release()

	if g == nil {
		g, err = req.Graph.buildGraph(paletteMode, s.cfg.MaxNodes)
		if err != nil {
			s.failed.Add(1)
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	in := buildInstance(g, paletteMode)

	ctx, cancel := context.WithTimeout(r.Context(), req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	solveStart := time.Now()
	res, err := sv.Solve(ctx, in)
	solveWall := time.Since(solveStart)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// Client disconnect mid-solve: the solver aborted promptly and
			// the slot is released; nobody is listening for the response.
			s.canceled.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, "solve exceeded its deadline")
		default:
			s.failed.Add(1)
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	s.solved.Add(1)
	s.adm.observeSolve(solveWall)

	if !req.NoCache {
		s.cache.Put(key, CachedResult{
			Colors:         res.Coloring.Colors,
			M:              g.M(),
			DistinctColors: res.DistinctColors,
			Rounds:         res.Rounds,
		})
	}

	elapsed := time.Since(start)
	s.hist.Observe(elapsed)
	resp := SolveResponse{
		N:              g.N(),
		M:              g.M(),
		Algorithm:      conf.alg.String(),
		DistinctColors: res.DistinctColors,
		Rounds:         res.Rounds,
		CacheKey:       key,
		ElapsedMillis:  float64(elapsed.Nanoseconds()) / 1e6,
	}
	if req.IncludeColors {
		resp.Colors = res.Coloring.Colors
	}
	writeJSON(w, http.StatusOK, resp)
}

// Stats is the GET /stats document (and the source of /metrics lines).
type Stats struct {
	UptimeSeconds float64                      `json:"uptime_seconds"`
	Requests      int64                        `json:"requests_total"`
	Solved        int64                        `json:"solved_total"`
	Rejected      int64                        `json:"rejected_total"`
	Canceled      int64                        `json:"canceled_total"`
	Timeouts      int64                        `json:"timeouts_total"`
	Failed        int64                        `json:"failed_total"`
	QueueDepth    int64                        `json:"queue_depth"`
	Inflight      int64                        `json:"inflight"`
	Cache         CacheStats                   `json:"cache"`
	LatencyCount  int64                        `json:"latency_count"`
	LatencyMeanMs float64                      `json:"latency_mean_ms"`
	LatencyP50Ms  float64                      `json:"latency_p50_ms"`
	LatencyP90Ms  float64                      `json:"latency_p90_ms"`
	LatencyP99Ms  float64                      `json:"latency_p99_ms"`
	Phases        []parcolor.TracePhaseSummary `json:"phases"`
}

func (s *Server) stats(window bool) Stats {
	var phases []parcolor.TracePhaseSummary
	if window {
		phases = s.collector.SnapshotAndReset()
	} else {
		phases = s.collector.Snapshot()
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Solved:        s.solved.Load(),
		Rejected:      s.adm.rejected.Load(),
		Canceled:      s.canceled.Load(),
		Timeouts:      s.timeouts.Load(),
		Failed:        s.failed.Load(),
		QueueDepth:    s.adm.queued.Load(),
		Inflight:      s.adm.running.Load(),
		Cache:         s.cache.Stats(),
		LatencyCount:  s.hist.Count(),
		LatencyMeanMs: ms(s.hist.Mean()),
		LatencyP50Ms:  ms(s.hist.Quantile(0.50)),
		LatencyP90Ms:  ms(s.hist.Quantile(0.90)),
		LatencyP99Ms:  ms(s.hist.Quantile(0.99)),
		Phases:        phases,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"queue_depth":    s.QueueDepth(),
		"inflight":       s.Inflight(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	window := r.URL.Query().Get("window") != ""
	writeJSON(w, http.StatusOK, s.stats(window))
}

// handleMetrics renders the counters in a flat, Prometheus-style text
// format: one "name value" line per counter/gauge, then one
// colord_phase_* block per (engine, phase) trace aggregate.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.stats(false)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "colord_uptime_seconds %.3f\n", st.UptimeSeconds)
	fmt.Fprintf(w, "colord_requests_total %d\n", st.Requests)
	fmt.Fprintf(w, "colord_solved_total %d\n", st.Solved)
	fmt.Fprintf(w, "colord_rejected_total %d\n", st.Rejected)
	fmt.Fprintf(w, "colord_canceled_total %d\n", st.Canceled)
	fmt.Fprintf(w, "colord_timeouts_total %d\n", st.Timeouts)
	fmt.Fprintf(w, "colord_failed_total %d\n", st.Failed)
	fmt.Fprintf(w, "colord_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(w, "colord_inflight %d\n", st.Inflight)
	fmt.Fprintf(w, "colord_cache_hits_total %d\n", st.Cache.Hits)
	fmt.Fprintf(w, "colord_cache_misses_total %d\n", st.Cache.Misses)
	fmt.Fprintf(w, "colord_cache_evictions_total %d\n", st.Cache.Evictions)
	fmt.Fprintf(w, "colord_cache_entries %d\n", st.Cache.Entries)
	fmt.Fprintf(w, "colord_cache_bytes %d\n", st.Cache.Bytes)
	fmt.Fprintf(w, "colord_latency_count %d\n", st.LatencyCount)
	fmt.Fprintf(w, "colord_latency_mean_ms %.3f\n", st.LatencyMeanMs)
	fmt.Fprintf(w, "colord_latency_p50_ms %.3f\n", st.LatencyP50Ms)
	fmt.Fprintf(w, "colord_latency_p90_ms %.3f\n", st.LatencyP90Ms)
	fmt.Fprintf(w, "colord_latency_p99_ms %.3f\n", st.LatencyP99Ms)
	phases := st.Phases
	sort.SliceStable(phases, func(i, j int) bool {
		if phases[i].Engine != phases[j].Engine {
			return phases[i].Engine < phases[j].Engine
		}
		return phases[i].Phase < phases[j].Phase
	})
	for _, p := range phases {
		lbl := fmt.Sprintf("{engine=%q,phase=%q}", p.Engine, p.Phase)
		fmt.Fprintf(w, "colord_phase_count%s %d\n", lbl, p.Count)
		fmt.Fprintf(w, "colord_phase_participants%s %d\n", lbl, p.Participants)
		fmt.Fprintf(w, "colord_phase_elapsed_ns%s %d\n", lbl, p.Elapsed.Nanoseconds())
	}
}
