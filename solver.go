package parcolor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parcolor/internal/d1lc"
	"parcolor/internal/deframe"
	"parcolor/internal/faultinject"
	"parcolor/internal/graph"
	"parcolor/internal/greedy"
	"parcolor/internal/hknt"
	"parcolor/internal/jp"
	"parcolor/internal/lowdeg"
	"parcolor/internal/mis"
	"parcolor/internal/mpc"
	"parcolor/internal/par"
	"parcolor/internal/sparsify"
	"parcolor/internal/trace"
)

// Tracing re-exports. Engines emit one phase per derandomized step / Luby
// round / trial round / MPC TRC round / sparsify partition; attach a
// Tracer with WithTrace to observe them.
type (
	// Tracer observes phase enter/exit events. Implementations must be
	// safe for concurrent use (a Solver shares one Tracer across its
	// concurrent solves).
	Tracer = trace.Tracer
	// TraceEvent is one phase observation.
	TraceEvent = trace.Event
	// TraceCollector aggregates exit events into per-phase summaries.
	TraceCollector = trace.Collector
	// TracePhaseSummary is one aggregated (engine, phase) row.
	TracePhaseSummary = trace.PhaseSummary
)

// NewTraceCollector returns an empty aggregating Tracer.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// Solver is a reusable, concurrency-safe solving harness: configuration is
// validated once by NewSolver, and the worker budget is owned by the
// Solver (two Solvers with different budgets running concurrently never
// observe each other's bound — nothing global is mutated). The per-worker
// scratch of the derandomization engines (PRG expansion buffers, trial
// arenas, seed totals, run states, bitset masks) lives in
// package-level sync.Pools that every Solver shares, so a fresh Solver
// reuses it as well as an old one. What a Solver itself keeps across
// solves is the chunk-assignment memo: re-solving the same *Graph skips
// the power-graph construction.
//
// All methods are safe for concurrent use. Reuse, worker bounds and
// tracing never change what is computed: every Solver built with the same
// result-affecting options returns bit-identical results.
type Solver struct {
	cfg    config
	tracer Tracer
	run    *par.Runner // the Solver-owned worker budget (no context)

	dfCache *deframe.Cache
}

// config is the configuration the With* options set; see each option for
// a field's meaning and default.
type config struct {
	alg         Algorithm
	seed        uint64
	seedBits    int
	nisan       bool
	bitwise     bool
	bins        int
	midDegree   int
	workers     int
	degreeShard bool
}

// Option configures a Solver at construction.
type Option func(*Solver) error

// WithAlgorithm selects the solver algorithm (default Deterministic).
// Validated by NewSolver.
func WithAlgorithm(a Algorithm) Option {
	return func(s *Solver) error { s.cfg.alg = a; return nil }
}

// WithWorkers bounds the Solver's worker goroutines per parallel loop.
// n <= 0 means GOMAXPROCS. The bound is owned by this Solver: concurrent
// Solvers with different bounds each honor their own.
func WithWorkers(n int) Option {
	return func(s *Solver) error { s.cfg.workers = n; return nil }
}

// WithSeed sets the seed for the Randomized and GreedySequential
// algorithms (ignored by the deterministic ones).
func WithSeed(seed uint64) Option {
	return func(s *Solver) error { s.cfg.seed = seed; return nil }
}

// WithSeedBits caps the PRG seed space for derandomization
// (0 = Θ(log Δ) auto, capped at 12). Validated by NewSolver.
func WithSeedBits(bits int) Option {
	return func(s *Solver) error { s.cfg.seedBits = bits; return nil }
}

// WithNisan switches the derandomizer to the Nisan-style PRG.
func WithNisan(on bool) Option {
	return func(s *Solver) error { s.cfg.nisan = on; return nil }
}

// WithBitwise selects bit-by-bit conditional expectations instead of full
// parallel seed enumeration.
func WithBitwise(on bool) Option {
	return func(s *Solver) error { s.cfg.bitwise = on; return nil }
}

// WithBins sets the sparsification fan-out n^δ (0 = auto). Validated by
// NewSolver.
func WithBins(bins int) Option {
	return func(s *Solver) error { s.cfg.bins = bins; return nil }
}

// WithMidDegree sets the degree threshold below which nodes skip
// sparsification (0 = auto).
func WithMidDegree(d int) Option {
	return func(s *Solver) error { s.cfg.midDegree = d; return nil }
}

// WithTrace attaches a phase observer to every solve this Solver runs.
func WithTrace(t Tracer) Option {
	return func(s *Solver) error { s.tracer = t; return nil }
}

// WithDegreeShard solves on the degree-sorted sharded relabeling of the
// input graph — vertices permuted into cache-resident, degree-sorted
// shards — and maps the coloring back to original ids through the inverse
// permutation. Verification always runs against the original instance,
// and on regular graphs (identity relabeling) the result is bit-identical
// to the unsharded solve.
func WithDegreeShard(on bool) Option {
	return func(s *Solver) error { s.cfg.degreeShard = on; return nil }
}

// NewSolver validates the configuration once and returns a reusable
// Solver. The zero configuration (no options) is the deterministic
// Theorem 1 solver with auto-tuned parameters.
//
// Validation is centralized here — Option constructors are plain setters
// — so every accepted range is checked in one place.
func NewSolver(opts ...Option) (*Solver, error) {
	s := &Solver{}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	c := s.cfg
	// SeedBits ≤ 24 guards the 2^bits seed-space materializations (and
	// condexp's own 30-bit panic threshold) long before they become
	// multi-gigabyte tables.
	if c.seedBits < 0 || c.seedBits > 24 {
		return nil, fmt.Errorf("parcolor: seed bits %d outside [0, 24]", c.seedBits)
	}
	if c.bins < 0 || c.bins == 1 {
		return nil, fmt.Errorf("parcolor: bins must be 0 (auto) or ≥ 2, got %d", c.bins)
	}
	if c.midDegree < 0 {
		return nil, fmt.Errorf("parcolor: negative mid-degree %d", c.midDegree)
	}
	switch c.alg {
	case Deterministic, Randomized, GreedySequential, LowDegreeDeterministic,
		JonesPlassmann, LubyColoring:
	default:
		return nil, fmt.Errorf("parcolor: unknown algorithm %d", c.alg)
	}
	s.run = par.NewRunner(c.workers)
	s.dfCache = deframe.NewCache()
	return s, nil
}

// runner derives the per-call runner: the Solver's worker budget plus the
// call's cancellation context.
func (s *Solver) runner(ctx context.Context) *par.Runner {
	return s.run.WithContext(ctx)
}

// Solve colors the instance with the configured algorithm and verifies the
// result. ctx cancels the solve promptly — between phases and inside every
// seed walk — returning ctx's error; a nil ctx means context.Background().
func (s *Solver) Solve(ctx context.Context, in *Instance) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Check(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Degree sharding: permute the instance into the degree-sorted
	// cache-resident layout, solve the permuted instance, and map the
	// coloring back through the inverse permutation. Verification below
	// always runs against the caller's original instance.
	solveIn := in
	var rl *graph.Relabeling
	if s.cfg.degreeShard {
		rl = graph.DegreeSorted(in.G)
		pg := rl.Apply(s.runner(ctx), in.G)
		pal := make([][]int32, in.G.N())
		for i, old := range rl.OldOf {
			pal[i] = in.Palettes[old]
		}
		solveIn = &Instance{G: pg, Palettes: pal}
	}
	var (
		res *Result
		err error
	)
	switch s.cfg.alg {
	case Randomized:
		res, err = s.solveRandomized(ctx, solveIn)
	case GreedySequential:
		res, err = s.solveGreedy(solveIn)
	case LowDegreeDeterministic:
		res, err = s.solveLowDeg(ctx, solveIn)
	case JonesPlassmann:
		res, err = s.solveJP(ctx, solveIn)
	case LubyColoring:
		res, err = s.solveLuby(ctx, solveIn)
	default:
		res, err = s.solveDeterministic(ctx, solveIn, rl)
	}
	if err != nil {
		return nil, err
	}
	if rl != nil {
		res.Coloring = &Coloring{Colors: rl.MapBack(res.Coloring.Colors)}
	}
	if err := d1lc.Verify(in, res.Coloring); err != nil {
		return nil, fmt.Errorf("parcolor: internal error, solver produced invalid coloring: %w", err)
	}
	res.DistinctColors = greedy.DistinctColors(res.Coloring)
	return res, nil
}

func (s *Solver) deframeOptions(tr Tracer) deframe.Options {
	dopt := deframe.Options{
		SeedBits: s.cfg.seedBits,
		Bitwise:  s.cfg.bitwise,
		Par:      s.run,
		Trace:    tr,
		Cache:    s.dfCache,
	}
	if s.cfg.nisan {
		dopt.PRG = deframe.PRGNisan
	}
	return dopt
}

// solveDeterministic is Theorem 1: LowSpaceColorReduce over the deframe
// base solver. Rounds are accounted for parallel composition: base
// instances at one recursion level run concurrently on disjoint machine
// groups, so the level cost is the maximum, not the sum. rl is the
// degree-shard relabeling the instance was permuted by (nil when
// unsharded); its shard cuts feed the partitioner's shard-aware loops.
func (s *Solver) solveDeterministic(ctx context.Context, in *Instance, rl *graph.Relabeling) (*Result, error) {
	rounds, residue := 0, 0
	deferral := 0.0
	var statMu sync.Mutex // base runs concurrently across restricted bins
	dopt := s.deframeOptions(s.tracer)
	// The caller's graph is the one identity that recurs across solves of
	// the same instance; everything else deframe sees is per-solve.
	dopt.MemoGraph = in.G
	base := func(sub *d1lc.Instance) (*d1lc.Coloring, error) {
		col, rep, err := deframe.Run(ctx, sub, dopt)
		if err != nil {
			return nil, err
		}
		statMu.Lock()
		if r := rep.TotalRounds(); r > rounds {
			rounds = r
		}
		if f := rep.MaxDeferralFraction(); f > deferral {
			deferral = f
		}
		residue = max(residue, rep.MaxGreedyResidue())
		statMu.Unlock()
		return col, nil
	}
	sopt := sparsify.Options{
		Bins:      s.cfg.bins,
		MidDegree: s.cfg.midDegree,
		Par:       s.run,
		Trace:     s.tracer,
	}
	if rl != nil {
		sopt.ShardOffsets = rl.ShardOffsets
	}
	col, srep, err := sparsify.ColorReduce(ctx, in, sopt, base)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: rounds, Sparsify: srep, DeferralFraction: deferral, MaxGreedyResidue: residue}, nil
}

func (s *Solver) solveRandomized(ctx context.Context, in *Instance) (*Result, error) {
	col, st, _, err := hknt.RandomizedColor(s.runner(ctx), in, s.cfg.seed, hknt.Tunables{})
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: st.Meter.Rounds}, nil
}

func (s *Solver) solveGreedy(in *Instance) (*Result, error) {
	col, err := greedy.Color(in, greedy.ByID, s.cfg.seed)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col}, nil
}

// solveJP is the Jones–Plassmann classical baseline: no derandomization,
// one trace phase per local-maxima round under engine "jp".
func (s *Solver) solveJP(ctx context.Context, in *Instance) (*Result, error) {
	col, st, err := jp.Color(ctx, s.runner(ctx), in, s.cfg.seed, s.tracer)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: st.Rounds}, nil
}

// solveLuby is the Luby-MIS classical baseline: repeated randomized MIS
// on the uncolored residual, one trace phase per MIS under engine "luby".
// Rounds reports total Luby rounds (the depth proxy), not phases.
func (s *Solver) solveLuby(ctx context.Context, in *Instance) (*Result, error) {
	col, st, err := mis.LubyColor(ctx, s.runner(ctx), in, s.cfg.seed, s.tracer)
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: st.Rounds}, nil
}

func (s *Solver) solveLowDeg(ctx context.Context, in *Instance) (*Result, error) {
	col, stats, err := lowdeg.IterativeDerandomized(ctx, in, lowdeg.Options{
		SeedBits: s.cfg.seedBits,
		Bitwise:  s.cfg.bitwise,
		Par:      s.run,
		Trace:    s.tracer,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Coloring: col, Rounds: stats.Rounds}, nil
}

// MPCOption configures one SolveOnMPC run's transport and fault
// tolerance. The zero configuration — in-process loopback, no deadline,
// no retries, no fallback — is byte-identical to the historical engine.
type MPCOption func(*mpcRunConfig)

type mpcRunConfig struct {
	faults   *FaultSchedule
	retry    MPCRetryPolicy
	deadline time.Duration
	fallback bool
}

// WithMPCFaults wraps the run's in-process loopback transport in a
// deterministic fault injector driven by the schedule. Injected fault counts surface in MPCResult.FaultEvents
// and, per event, on the attached Tracer under engine "transport".
func WithMPCFaults(sched FaultSchedule) MPCOption {
	return func(c *mpcRunConfig) { c.faults = &sched }
}

// WithMPCRetry lets each protocol phase (palette exchange, seed
// selection, commit, residue gather) re-attempt after a classified
// transport fault, with exponential backoff and deterministic jitter.
// Every retried phase rebuilds its staging from host state and defers
// durable mutations until delivery is verified, so retries change only
// the cost accounting — never the coloring.
func WithMPCRetry(p MPCRetryPolicy) MPCOption {
	return func(c *mpcRunConfig) { c.retry = p }
}

// WithMPCDeadline bounds each engine round: a transport whose simulated
// (or real) delivery would exceed d fails the round with
// ErrMPCRoundTimeout instead of stalling the synchronous schedule. 0
// disables the bound.
func WithMPCDeadline(d time.Duration) MPCOption {
	return func(c *mpcRunConfig) { c.deadline = d }
}

// WithMPCFallback degrades gracefully when the retry budget is
// exhausted: instead of surfacing the transport fault, the solve re-runs
// the same deterministic protocol on a fresh fault-free in-process
// cluster. The result is then bit-identical to a fault-free run, with
// Degraded/DegradedReason recording the abandoned lossy attempt.
func WithMPCFallback(enabled bool) MPCOption {
	return func(c *mpcRunConfig) { c.fallback = enabled }
}

// SolveOnMPC colors the instance with every round executed on the
// simulated MPC cluster: per-round Lemma 10 derandomization (PRG chunks,
// palette exchange, distributed conditional expectations, commit) and the
// Theorem 12 greedy base case on machine 0 — no shared-memory shortcuts.
// localSpace is s in words (0 picks a generous default); the engine
// records space high-water marks rather than failing, so callers can
// inspect how much space the run actually needed. seedBits bounds the
// per-round seed space (0 = 6). Orders of magnitude slower than Solve;
// intended for model-faithful validation and teaching.
//
// The run rides this Solver's harness: ctx cancels at every engine round
// boundary, the cluster's simulation concurrency rides the Solver's worker
// budget, and the attached Tracer observes one phase per derandomized TRC
// round.
//
// opts select the transport and fault-tolerance policy. On a lossy
// transport the solve retries faulted phases under WithMPCRetry; if the
// budget runs out it either falls back to a fault-free in-process run
// (WithMPCFallback) or returns a classified error (ErrMPCRoundTimeout,
// ErrMPCMachineLost, ErrMPCSegmentLost) — by construction it never
// returns a coloring that differs from the fault-free one.
func (s *Solver) SolveOnMPC(ctx context.Context, in *Instance, localSpace, seedBits int, opts ...MPCOption) (*MPCResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Check(); err != nil {
		return nil, err
	}
	if localSpace == 0 {
		localSpace = 1 << 16
	}
	if seedBits == 0 {
		seedBits = 6
	}
	var rc mpcRunConfig
	for _, o := range opts {
		if o != nil {
			o(&rc)
		}
	}
	var tp mpc.Transport // nil: the in-process loopback
	var injector *faultinject.Transport
	if rc.faults != nil {
		injector = faultinject.New(nil, *rc.faults, s.tracer)
		tp = injector
	}
	c, err := mpc.NewCluster(mpc.Config{
		Machines:      in.G.N() + 1,
		LocalSpace:    localSpace,
		Par:           s.run,
		Transport:     tp,
		RoundDeadline: rc.deadline,
	})
	if err != nil {
		return nil, err
	}
	col, stats, err := mpc.DeterministicColorMPC(ctx, c, in, seedBits, 0, s.tracer, mpc.RoundOptions{Retry: rc.retry})
	degraded := false
	degradedReason := ""
	if err != nil {
		if !rc.fallback || !mpc.IsTransportFault(err) || ctx.Err() != nil {
			return nil, err
		}
		// Graceful degradation: the lossy transport is beyond its retry
		// budget. Re-run the identical deterministic protocol on a fresh
		// fault-free in-process cluster — same instance, same seeds, so
		// the coloring is bit-identical to a fault-free oracle run.
		degraded, degradedReason = true, err.Error()
		sp := trace.Begin(s.tracer, "mpc", "fallback", 0, in.G.N())
		lossyRetries := c.Metrics.Retries
		c, err = mpc.NewCluster(mpc.Config{Machines: in.G.N() + 1, LocalSpace: localSpace, Par: s.run})
		if err != nil {
			sp.End(0, 0, 0)
			return nil, err
		}
		col, stats, err = mpc.DeterministicColorMPC(ctx, c, in, seedBits, 0, s.tracer, mpc.RoundOptions{})
		if err != nil {
			sp.End(0, 0, 0)
			return nil, err
		}
		stats.Retries += lossyRetries
		sp.End(0, in.G.N(), 0)
	}
	if err := d1lc.Verify(in, col); err != nil {
		return nil, fmt.Errorf("parcolor: internal error, MPC solver produced invalid coloring: %w", err)
	}
	var faultEvents int64
	if injector != nil {
		fs := injector.Stats()
		faultEvents = fs.Drops + fs.Dups + fs.Reorders + fs.Timeouts + fs.CrashedRounds
	}
	m := c.Metrics
	return &MPCResult{
		Coloring:       col,
		MPCRounds:      stats.MPCRounds,
		TrialRounds:    stats.TRCRounds,
		MaxStored:      m.MaxStored,
		MaxSent:        m.MaxSent,
		MaxReceived:    m.MaxReceived,
		Violations:     m.Violations,
		Machines:       len(c.Machines),
		Retries:        stats.Retries,
		FaultEvents:    faultEvents,
		Degraded:       degraded,
		DegradedReason: degradedReason,
	}, nil
}

// MIS computes a maximal independent set with the derandomized Luby
// algorithm (the paper's Definition 5 worked example) on this Solver's
// harness: ctx cancels between rounds and inside seed walks, workers are
// bounded by the Solver's budget, scratch comes from the shared pools, the
// attached Tracer observes one phase per Luby round, and the Solver's
// seed-bits and bitwise selections apply to the per-round seed selection.
func (s *Solver) MIS(ctx context.Context, g *Graph) (MISResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return MISResult{}, errors.New("parcolor: MIS of a nil graph")
	}
	r, err := mis.Derandomized(ctx, g, mis.Options{
		SeedBits: s.cfg.seedBits,
		Bitwise:  s.cfg.bitwise,
		Par:      s.run,
		Trace:    s.tracer,
	})
	if err != nil {
		return MISResult{}, err
	}
	return MISResult{InSet: r.InSetNodes(), Rounds: r.Rounds}, nil
}
