// Package parcolor is a Go implementation of "Parallel Derandomization for
// Coloring" (Coy, Czumaj, Davies-Peck, Mishra; IPDPS 2024,
// arXiv:2302.04378): deterministic and randomized (degree+1)-list-coloring
// (D1LC) solvers built from the paper's derandomization framework for the
// sublinear-space Massively Parallel Computation model.
//
// The deterministic solver (Theorem 1) composes three layers:
//
//  1. recursive degree reduction (Section 6, LowSpaceColorReduce),
//  2. the HKNT22 pre-shattering pipeline expressed as normal
//     (τ,Δ)-round distributed procedures (Definition 5) and derandomized
//     with PRGs plus the method of conditional expectations (Lemma 10,
//     Theorem 12), and
//  3. a deterministic low-degree finisher.
//
// Every solver returns a complete, proper coloring for every valid
// instance — the framework defers nodes that fail their strong success
// properties and re-colors them through D1LC self-reducibility, so PRG
// quality affects measured rounds, never correctness.
//
// Quick start — construct a reusable Solver once, then solve any number
// of instances (concurrently, if desired) on it:
//
//	solver, err := parcolor.NewSolver() // deterministic Theorem 1 solver
//	if err != nil { ... }
//	g := parcolor.GenerateGraph("gnp-sparse", 1000, 1)
//	in := parcolor.TrivialPalettes(g)
//	res, err := solver.Solve(ctx, in)
//	// res.Coloring is a verified proper coloring.
//
// The Solver owns its worker budget (parcolor.WithWorkers — two Solvers
// with different budgets never interfere), honors context cancellation in
// every long loop, and reports per-phase progress through an attached
// Tracer (parcolor.WithTrace). The derandomization engines' scratch lives
// in package-level pools that every Solver shares, so building a Solver
// is cheap; reusing one saves only the chunk assignment of a graph it has
// already solved. NewSolver and its With* options are the
// only configuration surface: MIS (Solver.MIS) and the model-faithful MPC
// run (Solver.SolveOnMPC) go through a Solver as well.
//
// Two classical randomized baselines ship as first-class algorithms for
// benchmarking the derandomized pipeline against the literature's
// standard comparison points:
//
//	jp, _ := parcolor.NewSolver(parcolor.WithAlgorithm(parcolor.JonesPlassmann))
//	lb, _ := parcolor.NewSolver(parcolor.WithAlgorithm(parcolor.LubyColoring))
//
// Both scale past 10^6 vertices; `make bench-scale` (cmd/scalebench)
// sweeps them alongside the deterministic solver on gnp and Chung–Lu
// power-law graphs and records wall time, rounds, peak live heap and
// color counts. parcolor.WithDegreeShard(true) additionally solves on the
// degree-sorted relabeling of the input (vertices in descending degree
// order) and maps the coloring back to the original ids.
package parcolor

import (
	"fmt"

	"parcolor/internal/d1lc"
	"parcolor/internal/faultinject"
	"parcolor/internal/graph"
	"parcolor/internal/mis"
	"parcolor/internal/mpc"
	"parcolor/internal/sparsify"
)

// Re-exported core types. They alias the internal implementations so that
// downstream users can name them without reaching into internal packages.
type (
	// Graph is an immutable undirected simple graph in CSR form.
	Graph = graph.Graph
	// Instance is a D1LC instance: a graph plus per-node palettes of size
	// ≥ degree+1.
	Instance = d1lc.Instance
	// Coloring is a (possibly partial) color assignment.
	Coloring = d1lc.Coloring
)

// Uncolored is the sentinel for unassigned nodes.
const Uncolored = d1lc.Uncolored

// Algorithm selects a solver.
type Algorithm int

// Available algorithms.
const (
	// Deterministic is the Theorem 1 solver (default).
	Deterministic Algorithm = iota
	// Randomized is the Lemma 4 solver.
	Randomized
	// GreedySequential is the single-machine baseline.
	GreedySequential
	// LowDegreeDeterministic is the conditional-expectations iterative
	// solver (the Lemma 14 stand-in), usable directly on any instance.
	LowDegreeDeterministic
	// JonesPlassmann is the classical randomized parallel baseline: random
	// priorities drawn once, local maxima color greedily each round. No
	// derandomization; the comparison point for scale benchmarks.
	JonesPlassmann
	// LubyColoring is the classical Luby-based baseline: repeated
	// randomized Luby MIS on the uncolored residual, each selected set
	// taking its smallest available palette colors simultaneously.
	LubyColoring
)

// AlgorithmByName maps the canonical lowercase names — the exact strings
// Algorithm.String returns ("deterministic", "randomized", "greedy",
// "lowdeg", "jp", "luby") — back to Algorithm values. It is the single
// name registry for every text surface (CLI flags, the serving API's
// request field, bench harness specs).
func AlgorithmByName(name string) (Algorithm, error) {
	switch name {
	case "deterministic":
		return Deterministic, nil
	case "randomized":
		return Randomized, nil
	case "greedy":
		return GreedySequential, nil
	case "lowdeg":
		return LowDegreeDeterministic, nil
	case "jp":
		return JonesPlassmann, nil
	case "luby":
		return LubyColoring, nil
	}
	return 0, fmt.Errorf("parcolor: unknown algorithm %q", name)
}

// AlgorithmNames lists the names accepted by AlgorithmByName.
func AlgorithmNames() []string {
	return []string{"deterministic", "randomized", "greedy", "lowdeg", "jp", "luby"}
}

func (a Algorithm) String() string {
	switch a {
	case Deterministic:
		return "deterministic"
	case Randomized:
		return "randomized"
	case GreedySequential:
		return "greedy"
	case LowDegreeDeterministic:
		return "lowdeg"
	case JonesPlassmann:
		return "jp"
	case LubyColoring:
		return "luby"
	}
	return "?"
}

// Result is the outcome of Solver.Solve.
type Result struct {
	Coloring *Coloring
	// Rounds is the LOCAL-round accounting of the distributed portion
	// (greedy baseline reports 0).
	Rounds int
	// DistinctColors used by the solution.
	DistinctColors int
	// Deterministic-path reports (nil for other algorithms).
	Sparsify *sparsify.Report
	// DeferralFraction is the worst per-step deferral ratio observed.
	DeferralFraction float64
	// MaxGreedyResidue is the largest node count one greedy base case
	// colored on one machine, over base instances and recursion levels
	// (Deterministic only; 0 for the other algorithms). Theorem 12's base
	// case assumes that residue fits on one machine, which Rounds alone
	// does not show.
	MaxGreedyResidue int
}

// Verify checks that col is a complete proper list coloring of in.
func Verify(in *Instance, col *Coloring) error { return d1lc.Verify(in, col) }

// --- Graph and instance construction ----------------------------------------

// GenerateGraph builds one of the named workload graphs:
// "gnp-sparse", "gnp-dense", "regular", "powerlaw" (preferential
// attachment), "chunglu" (Chung–Lu power-law), "cliques", "mixed",
// "caterpillar", "cycle", "complete". It panics on unknown names; use
// graph generators through NewGraphBuilder for custom topologies.
func GenerateGraph(name string, n int, seed uint64) *Graph {
	g, err := graph.Named(name, n, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// GraphNames lists the generator names accepted by GenerateGraph.
func GraphNames() []string {
	return []string{"gnp-sparse", "gnp-dense", "regular", "powerlaw", "chunglu", "cliques", "mixed", "caterpillar", "cycle", "complete"}
}

// GraphBuilder accumulates edges for a custom graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for an n-node graph.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// TrivialPalettes gives each node the palette {0,…,deg(v)}.
func TrivialPalettes(g *Graph) *Instance { return d1lc.TrivialPalettes(g) }

// DeltaPlus1Palettes gives every node {0,…,Δ}: (Δ+1)-coloring as D1LC.
func DeltaPlus1Palettes(g *Graph) *Instance { return d1lc.DeltaPlus1Palettes(g) }

// RandomPalettes draws each node a random (deg+1+extra)-subset of a color
// universe.
func RandomPalettes(g *Graph, extra, universe int, seed uint64) *Instance {
	return d1lc.RandomPalettes(g, extra, universe, seed)
}

// NewInstance wraps a graph and explicit palettes (validated by Check on
// Solve).
func NewInstance(g *Graph, palettes [][]int32) *Instance {
	return &Instance{G: g, Palettes: palettes}
}

// EdgeColoringInstance reduces (2Δ−1)-edge-coloring of g to D1LC on the
// line graph: line-graph node i corresponds to edges[i], and palettes are
// {0,…,deg_L(i)} ⊆ {0,…,2Δ−2}. Coloring the returned instance and reading
// color[i] for edges[i] yields a proper edge coloring with at most 2Δ−1
// colors.
func EdgeColoringInstance(g *Graph) (*Instance, [][2]int32) {
	lg, edges := graph.LineGraph(g)
	return d1lc.TrivialPalettes(lg), edges
}

// --- MPC-faithful solving -----------------------------------------------------

// Fault-tolerance surface. These alias the internal implementations so
// callers can configure fault injection and recovery policy without
// importing internal packages.
type (
	// MPCRetryPolicy bounds per-phase retries after classified transport
	// faults (see WithMPCRetry).
	MPCRetryPolicy = mpc.RetryPolicy
	// FaultSchedule is a deterministic, seeded fault plan for
	// WithMPCFaults: message drops/dups/reorders, stragglers, crashes.
	FaultSchedule = faultinject.Schedule
	// StragglerSpan slows one machine during a tick window.
	StragglerSpan = faultinject.StragglerSpan
	// CrashSpan takes one machine down during a tick window.
	CrashSpan = faultinject.CrashSpan
)

// Classified transport faults surfaced by Solver.SolveOnMPC when retries are
// exhausted and no fallback is configured. Match with errors.Is.
var (
	// ErrMPCRoundTimeout: a round missed its deadline (straggler).
	ErrMPCRoundTimeout = mpc.ErrRoundTimeout
	// ErrMPCMachineLost: a machine crashed loudly mid-round.
	ErrMPCMachineLost = mpc.ErrMachineLost
	// ErrMPCSegmentLost: a protocol phase detected dropped messages.
	ErrMPCSegmentLost = mpc.ErrSegmentLost
)

// IsMPCTransportFault reports whether err is (or wraps) one of the
// classified transport faults above.
func IsMPCTransportFault(err error) bool { return mpc.IsTransportFault(err) }

// MPCResult is the outcome of Solver.SolveOnMPC.
type MPCResult struct {
	Coloring *Coloring
	// MPCRounds counts actual engine rounds (selection trees included).
	MPCRounds int
	// TrialRounds counts derandomized TryRandomColor trials.
	TrialRounds int
	// MaxStored/MaxSent/MaxReceived are per-machine high-water word
	// counts; Violations counts space-cap breaches (0 when LocalSpace is
	// sufficient).
	MaxStored, MaxSent, MaxReceived int64
	Violations                      int
	Machines                        int
	// Retries counts protocol-phase re-attempts recovered from transport
	// faults; FaultEvents counts faults injected by a WithMPCFaults
	// schedule (0 on clean transports).
	Retries     int
	FaultEvents int64
	// Degraded is set when the lossy run exhausted its retry budget and
	// the solve fell back to a fault-free in-process cluster
	// (WithMPCFallback); DegradedReason carries the fault that forced it.
	// The fallback re-runs the same deterministic protocol, so the
	// coloring is bit-identical to a fault-free run.
	Degraded       bool
	DegradedReason string
}

// --- MIS (the framework's second application) -------------------------------

// MISResult is a maximal-independent-set outcome (Solver.MIS derandomizes
// Luby's algorithm; MISRandomized runs it with random bits).
type MISResult struct {
	InSet  []int32
	Rounds int
}

// MISRandomized computes an MIS with Luby's randomized algorithm.
func MISRandomized(g *Graph, seed uint64) MISResult {
	r := mis.Randomized(g, seed, 10*64)
	return MISResult{InSet: r.InSetNodes(), Rounds: r.Rounds}
}
