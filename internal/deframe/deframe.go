// Package deframe is the paper's primary contribution: the black-box
// derandomization framework of Section 4.
//
//   - Definition 5 (normal (τ,Δ)-round distributed procedures) is realized
//     by hknt.Step: a pure randomized trial with declared round count τ and
//     per-node bit budget, a strong success property SSP evaluated on the
//     proposed outputs, and the structural guarantee — verified by tests —
//     that deferring failed nodes only improves the remaining nodes (slack
//     is monotone under deferral).
//
//   - Lemma 10 is DerandomizeStep: distribute one PRG output string into
//     per-node chunks via a coloring of G^{4τ} (Linial on the power graph,
//     or identity chunking when the power graph exceeds the space budget),
//     select the seed by the method of conditional expectations over the
//     measured failure count, commit the winning proposal, and defer the
//     SSP failures. Seed selection runs on the incremental scoring engine
//     (engine.go): one parallel pass over the seed space scores every seed
//     exactly once with pooled per-worker scratch (lazy PRG chunk views
//     that compute only the bits a draw reads, and reusable proposals
//     that reset only what the previous seed wrote, so a seed costs time
//     proportional to the step's participants, their arcs and the bits
//     their draws read) into a vector of per-seed totals, and both flat
//     and bitwise selection read that vector (condexp.Select) — the
//     paper's "each machine scores its nodes for every seed, then a
//     converge-cast sums per seed" structure, with the sum taken over all
//     participants at once. The winning proposal is cached during the
//     walk, never recomputed. The naive per-seed rescoring path is kept
//     (Options.NaiveScoring) as the oracle: both paths are bit-identical
//     in chosen seed, score and certificate, and differential tests
//     enforce it.
//
//   - Theorem 12 is Run: derandomize the schedule step by step, then
//     recurse on the deferred set through D1LC self-reducibility
//     (Definition 11), and finish the O(1)-depth residue greedily on one
//     machine. A level that colors nothing — every node below LowDeg, so
//     every step is empty, or every participant deferred — is itself the
//     residue and is finished in place, without a copy or a further
//     level; Report.MaxGreedyResidue says how large that one-machine
//     residue got, which Theorem 12 assumes fits on one machine. The
//     result is an unconditionally correct deterministic solver whose
//     deferral rates — the quantity Lemma 10 bounds by
//     nG/2 + nG·Δ^{−11τ} — are measured by experiment E3.
package deframe

import (
	"context"
	"fmt"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/linial"
	"parcolor/internal/par"
	"parcolor/internal/prg"
	"parcolor/internal/trace"
)

// PRGKind selects the generator family used for chunk expansion.
type PRGKind int

// Available PRG families (experiment E6 sweeps them).
const (
	// PRGKWise uses the k-wise polynomial generator (default, k=4).
	PRGKWise PRGKind = iota
	// PRGNisan uses the Nisan-style recursive generator.
	PRGNisan
)

// Options configures the derandomizer. Zero values take defaults.
type Options struct {
	// PRG selects the generator family.
	PRG PRGKind
	// KWiseK is the independence parameter for PRGKWise (default 4).
	KWiseK int
	// SeedBits caps the PRG seed length; the seed space 2^SeedBits is fully
	// enumerated by the method of conditional expectations (default:
	// Θ(log Δ) per the paper, capped at 12 → ≤4096 seeds).
	SeedBits int
	// Bitwise switches seed selection from parallel full enumeration to
	// the bit-by-bit method of conditional expectations (same guarantee,
	// structured as the classical method; on the engine path the branch
	// means are subset sums of the per-seed totals, so it costs the same
	// 2^SeedBits evaluations as flat selection instead of ~2×).
	Bitwise bool
	// NaiveScoring forces the monolithic per-seed rescoring path instead
	// of the incremental scoring engine. Both produce identical results
	// (seed, score, certificate, coloring); the naive path is the oracle
	// for differential tests and ablation baselines.
	NaiveScoring bool
	// MaxChunkGraphEdges bounds the materialized power graph; beyond it
	// the derandomizer falls back to identity chunking (one chunk per
	// node), which preserves correctness and costs only PRG output length.
	// Default 2_000_000.
	MaxChunkGraphEdges int
	// Tunables configures the underlying HKNT pipeline.
	Tunables hknt.Tunables
	// Par scopes every parallel loop (trial proposes, seed walks) to an
	// explicit worker budget. nil means the process default. Run derives
	// a context-carrying copy from its ctx argument, so cancellation
	// reaches the seed walks through the same handle.
	Par *par.Runner
	// Trace observes phase enter/exit events (one phase per derandomized
	// step, plus the greedy base case). nil disables tracing.
	Trace trace.Tracer
	// Cache holds the chunk-assignment memo across runs. nil memoizes
	// nothing.
	Cache *Cache
	// MemoGraph, when non-nil, marks the caller's reusable root graph:
	// chunk assignments are memoized in the Cache only for this graph, so
	// repeated solves of the same instance skip the power-graph
	// construction while per-solve throwaway graphs (sparsify bins,
	// recursion residuals) never churn or pin the memo.
	MemoGraph *graph.Graph
}

// Fixed constants of Theorem 12's driver.
const (
	// chunkRadius is the power-graph radius for chunk assignment: Lemma
	// 10's 4τ with τ = 2, the TryRandomColor/MultiTrial shape.
	chunkRadius = 8
	// maxDepth is the recursion depth over deferred residues before the
	// greedy base case (Theorem 12's r = O(1/δ)).
	maxDepth = 3
	// greedyThreshold: residues at most this size skip recursion and go
	// straight to the single-machine greedy.
	greedyThreshold = 64
)

func (o Options) withDefaults(delta int) Options {
	if o.KWiseK == 0 {
		o.KWiseK = 4
	}
	if o.SeedBits == 0 {
		o.SeedBits = prg.SeedBitsForDelta(delta, 12)
	}
	if o.MaxChunkGraphEdges == 0 {
		o.MaxChunkGraphEdges = 2_000_000
	}
	return o
}

// StepReport is the per-step accounting of one Lemma 10 invocation.
type StepReport struct {
	Name         string
	Participants int
	Colored      int
	Deferred     int
	SeedChosen   uint64
	SeedSpace    int
	Score        int64 // chosen seed's objective value
	MeanUpper    int64 // certificate: Score ≤ MeanUpper
	Evals        int   // scorer invocations spent selecting the seed
	Chunks       int
	PRGName      string
}

// Report aggregates a full Run.
type Report struct {
	Steps         []StepReport
	LocalRounds   int
	Depth         int // recursion depth actually used
	GreedyResidue int // nodes colored by the final greedy
	ChunkMode     string
	Recursed      *Report // report of the recursive call, if any
}

// TotalDeferred sums deferrals across steps at this level.
func (r *Report) TotalDeferred() int {
	n := 0
	for _, s := range r.Steps {
		n += s.Deferred
	}
	return n
}

// chunkAssignment colors G^radius (Lemma 10's G^{4τ}) with Linial's
// algorithm, falling back to identity chunks when the power graph is too
// large to materialize under the space budget. The power-graph build and
// coloring — the last leaf construction phases of a solve — run on r's
// workers (nil = process default), so a budget-scoped solve never fans
// out past its bound even while constructing.
func chunkAssignment(r *par.Runner, g *graph.Graph, radius, maxEdges int) (chunkOf []int32, numChunks int, mode string) {
	n := g.N()
	if n == 0 {
		return nil, 0, "empty"
	}
	// Estimate ball growth; materialize only if affordable.
	maxBall := maxEdges / maxInt(n, 1)
	power, err := graph.PowerGraphPar(r, g, radius, maxInt(maxBall, 8))
	if err == nil && power.M() <= maxEdges {
		res := linial.ColorPar(r, power)
		dense, count := linial.Normalize(res.Colors)
		return dense, count, "linial-power"
	}
	chunkOf = make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}
	return chunkOf, n, "identity"
}

// buildPRG constructs the generator for a step's chunk requirements.
func buildPRG(o Options, numChunks, bitsPer int) prg.PRG {
	out := prg.RequiredOutputBits(numChunks, bitsPer)
	if out < 64 {
		out = 64
	}
	switch o.PRG {
	case PRGNisan:
		// Choose levels so w·2^L ≥ out with w = 64.
		levels := 0
		for 64<<levels < out {
			levels++
		}
		return prg.NewNisan(64, levels, o.SeedBits)
	default:
		return prg.NewKWise(o.KWiseK, o.SeedBits, out)
	}
}

// DerandomizeStep applies Lemma 10 to one normal procedure: score every
// PRG seed by the step's objective (default: the number of SSP failures),
// commit the best seed's proposal, and defer the failures. It returns the
// per-step report.
//
// Seed scoring runs on the incremental scoring engine (engine.go) unless
// Options.NaiveScoring forces the monolithic per-seed path. Both are
// bit-identical in everything but cost, which Evals reports.
func DerandomizeStep(st *hknt.State, step *hknt.Step, chunkOf []int32, numChunks int, o Options) (StepReport, error) {
	parts := step.Participants(st)
	rep := StepReport{Name: step.Name, Participants: len(parts), SeedSpace: 1 << o.SeedBits, Chunks: numChunks}
	if len(parts) == 0 {
		return rep, nil
	}
	sp := trace.Begin(o.Trace, "deframe", step.Name, st.Meter.Rounds, len(parts))
	gen := buildPRG(o, numChunks, step.Bits)
	rep.PRGName = gen.Name()
	var res condexp.Result
	var prop hknt.Proposal
	var err error
	if o.NaiveScoring {
		res, prop, err = derandomizeStepNaive(st, step, parts, gen, chunkOf, numChunks, o)
	} else {
		eng := newStepEngine(st, step, parts, gen, chunkOf, numChunks)
		res, prop, err = eng.selectSeedTable(o)
	}
	if err != nil {
		sp.End(0, 0, 0)
		return rep, err
	}
	rep.SeedChosen = res.Seed
	rep.Score = res.Score
	rep.MeanUpper = res.MeanUpper()
	rep.Evals = res.Evals

	failures := step.Failures(st, parts, prop)
	rep.Colored = st.Apply(prop)
	for _, v := range failures {
		if st.Live(v) {
			st.Defer(v)
			rep.Deferred++
		}
	}
	sp.End(rep.Evals, rep.Colored, rep.Deferred)
	return rep, nil
}

// derandomizeStepNaive is the monolithic scorer: one full proposal plus
// full-graph score per evaluated seed, and a final re-proposal of the
// winner. It is the oracle the engine is differentially tested against. A
// cancelled runner surfaces the context error.
func derandomizeStepNaive(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error) {
	res, err := condexp.SelectNaive(o.Par, o.SeedBits, o.Bitwise, naiveScorer(st, step, parts, gen, chunkOf, numChunks))
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	src, _ := prg.NewChunkedSource(gen, res.Seed, chunkOf, numChunks, step.Bits)
	return res, step.Propose(st, parts, src, nil), nil
}

// naiveScorer is the oracle's objective: a fresh eager expansion, a
// scratch-free Propose and DefaultScore per seed.
func naiveScorer(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) condexp.Scorer {
	return func(seed uint64) int64 {
		src, err := prg.NewChunkedSource(gen, seed, chunkOf, numChunks, step.Bits)
		if err != nil {
			// Generator too short is a construction bug; make it loud.
			panic(fmt.Sprintf("deframe: %v", err))
		}
		return step.DefaultScore(st, parts, step.Propose(st, parts, src, nil))
	}
}

// Run executes Theorem 12 for a D1LC instance: build the HKNT schedule,
// derandomize every step via Lemma 10, recurse on everything left
// uncolored (deferred nodes, put-aside leftovers, low-degree nodes)
// through self-reduction, and finish greedily once the residue is small,
// the depth budget is exhausted, or a level colors nothing (then on that
// level's own state, with no copy and no further level). The returned
// coloring is complete and proper for every valid instance.
//
// ctx cancels the run between steps and inside every seed walk; on
// cancellation Run returns ctx's error and no coloring, leaving no
// partially-applied shared state (each run owns its State). Parallelism is
// scoped by o.Par (nil = process default).
func Run(ctx context.Context, in *d1lc.Instance, o Options) (*d1lc.Coloring, *Report, error) {
	o = o.withDefaults(in.G.MaxDegree())
	o.Par = o.Par.WithContext(ctx)
	return run(in, o, maxDepth)
}

func run(in *d1lc.Instance, o Options, depth int) (*d1lc.Coloring, *Report, error) {
	rep := &Report{Depth: depth}
	st := hknt.NewState(in)
	defer st.Release() // runs after the returned st.Col is captured
	st.Par = o.Par
	n := in.G.N()
	if n == 0 {
		return st.Col, rep, nil
	}
	if err := o.Par.Err(); err != nil {
		return nil, rep, err
	}
	if n <= greedyThreshold || depth <= 0 {
		// Base case: the residue fits on one machine (Theorem 12's final
		// greedy step).
		if err := finishGreedy(st, o, rep); err != nil {
			return nil, rep, err
		}
		return st.Col, rep, nil
	}

	build := hknt.BuildColorMiddle(st, o.Tunables)
	if err := o.Par.Err(); err != nil {
		return nil, rep, err // cancelled mid-build: the schedule is empty
	}
	chunkOf, numChunks, mode := o.Cache.getChunks(o.Par, in.G, chunkRadius, o.MaxChunkGraphEdges, in.G == o.MemoGraph)
	rep.ChunkMode = mode
	for i := range build.Schedule.Steps {
		if err := o.Par.Err(); err != nil {
			return nil, rep, err
		}
		step := &build.Schedule.Steps[i]
		sr, err := DerandomizeStep(st, step, chunkOf, numChunks, o)
		if err != nil {
			return nil, rep, err
		}
		st.Meter.Tick(step.Tau)
		rep.Steps = append(rep.Steps, sr)
	}
	if build.Schedule.Finisher != nil {
		build.Schedule.Finisher(st)
		st.Meter.Tick(1)
	}
	rep.LocalRounds = st.Meter.Rounds

	switch st.Col.UncoloredCount() {
	case 0:
		return st.Col, rep, nil
	case n:
		// The level colored nothing: no step had participants (every node
		// is below LowDeg) or every participant was deferred. Recursing
		// could not make progress, so the residue is the whole instance
		// and goes straight to the base case, on this level's own state
		// rather than a copy of it.
		if err := finishGreedy(st, o, rep); err != nil {
			return nil, rep, err
		}
		return st.Col, rep, nil
	}

	// Residue: every uncolored node (deferred, failed put-aside, or
	// low-degree and never scheduled) re-enters via Definition 11. The
	// reduction rides a pooled arena — stamp-array relabeling instead of
	// per-arc binary search, reused CSR and palette storage — so the
	// recursion's per-level extraction is allocation-free in steady state.
	// The residual instance aliases the arena, which therefore stays
	// checked out until the recursive solve and Apply both finish.
	ar := d1lc.NewReduceArena()
	residual, origOf := ar.ReduceUncolored(o.Par, in, st.Col)
	subCol, subRep, err := run(residual, o, depth-1)
	if err != nil {
		ar.Release()
		return nil, rep, err
	}
	rep.Recursed = subRep
	d1lc.Apply(st.Col, subCol, origOf)
	ar.Release()
	return st.Col, rep, nil
}

// finishGreedy is Theorem 12's base case: the level's instance, all of
// it uncolored, is colored greedily on one machine, in one LOCAL round,
// under a "greedy-residue" span.
func finishGreedy(st *hknt.State, o Options, rep *Report) error {
	n := st.In.G.N()
	sp := trace.Begin(o.Trace, "deframe", "greedy-residue", st.Meter.Rounds, n)
	if err := hknt.FinishGreedy(st); err != nil {
		sp.End(0, 0, 0)
		return err
	}
	rep.GreedyResidue = n
	st.Meter.Tick(1)
	rep.LocalRounds = st.Meter.Rounds
	sp.End(0, n, 0)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TotalRounds sums LOCAL-round accounting across recursion levels, the
// quantity the E1 table reports (the paper's O(log log log n) counts MPC
// rounds after the Δ² ≤ s simulation, which multiplies by O(1)).
func (r *Report) TotalRounds() int {
	total := r.LocalRounds
	if r.Recursed != nil {
		total += r.Recursed.TotalRounds()
	}
	return total
}

// MaxGreedyResidue returns the largest node count one greedy base case
// colored on one machine, over the levels of the run.
func (r *Report) MaxGreedyResidue() int {
	m := r.GreedyResidue
	if r.Recursed != nil {
		m = max(m, r.Recursed.MaxGreedyResidue())
	}
	return m
}

// MaxDeferralFraction returns the largest per-step deferred/participants
// ratio across all levels: the Lemma 10 bound says the *expected* failures
// are at most 1/2 + Δ^{−11τ} of participants under the ideal PRG, and E3
// compares the measured value against it.
func (r *Report) MaxDeferralFraction() float64 {
	maxFrac := 0.0
	for _, s := range r.Steps {
		if s.Participants == 0 {
			continue
		}
		if f := float64(s.Deferred) / float64(s.Participants); f > maxFrac {
			maxFrac = f
		}
	}
	if r.Recursed != nil {
		if f := r.Recursed.MaxDeferralFraction(); f > maxFrac {
			maxFrac = f
		}
	}
	return maxFrac
}

// CertificatesHold reports whether every step's conditional-expectations
// certificate (Score ≤ MeanUpper) held; tests assert it.
func (r *Report) CertificatesHold() bool {
	for _, s := range r.Steps {
		if s.Participants == 0 {
			continue
		}
		if s.Score > s.MeanUpper {
			return false
		}
	}
	if r.Recursed != nil {
		return r.Recursed.CertificatesHold()
	}
	return true
}
