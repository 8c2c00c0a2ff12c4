// Package lowdeg provides the deterministic low-degree D1LC solver that
// stands in for Lemma 14 of [CDP21c] (the paper uses it as a black box for
// instances with polylogarithmic maximum degree, and for the
// post-shattering residue).
//
// IterativeDerandomized runs rounds of color trials where each node's
// candidate is drawn by a seeded hash and the seed is chosen by the method
// of conditional expectations to color at least the expected fraction of
// live nodes. Under a pairwise-independent family each round colors a
// constant fraction in expectation, so the chosen seed colors a constant
// fraction deterministically; a greedy fallback on a zero-progress round
// makes termination unconditional. This is the [CDP21b]-style
// bounded-independence derandomization.
//
// The round-complexity gap versus the paper (O(log n) vs O(log log log n))
// is confined to this base case and reported separately in the E1 table.
package lowdeg

import (
	"context"
	"fmt"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/trace"
)

// Options configures the iterative solver.
type Options struct {
	// SeedBits is the per-round seed space (default 10 → 1024 seeds).
	SeedBits int
	// Bitwise switches seed selection from flat enumeration to the
	// bit-by-bit method of conditional expectations (same guarantee; the
	// branch means are subset sums of the per-seed totals).
	Bitwise bool
	// Par scopes the round's parallel loops and seed walks to an explicit
	// worker budget; IterativeDerandomized derives a context-carrying copy
	// from its ctx argument. nil means the process default.
	Par *par.Runner
	// Trace observes one phase per trial round. nil disables tracing.
	Trace trace.Tracer
}

// Stats reports a run.
type Stats struct {
	Rounds         int
	GreedyFallback int // nodes colored by zero-progress fallbacks
	Certificates   []condexp.Result
}

// IterativeDerandomized colors the instance deterministically by
// conditional-expectation-selected trial rounds, scored on the
// incremental scoring engine (engine.go). It runs at most
// 8·⌊log₂(n+2)⌋+16 trial rounds, then colors whatever is left greedily,
// so it always returns a complete proper coloring (or an error only for
// invalid instances and cancellation).
//
// ctx cancels the run between rounds and inside every seed walk; on
// cancellation IterativeDerandomized returns ctx's error and no coloring.
// Parallelism is scoped by o.Par (nil = process default).
func IterativeDerandomized(ctx context.Context, in *d1lc.Instance, o Options) (*d1lc.Coloring, Stats, error) {
	return iterate(ctx, in, o, 8*log2(in.G.N()+2)+16, selectByEngine)
}

// iterate is IterativeDerandomized with at most maxRounds trial rounds,
// each round's seed selected by sel.
func iterate(ctx context.Context, in *d1lc.Instance, o Options, maxRounds int, sel trialSelector) (*d1lc.Coloring, Stats, error) {
	if o.SeedBits == 0 {
		o.SeedBits = 10
	}
	o.Par = o.Par.WithContext(ctx)
	st := hknt.NewState(in)
	defer st.Release() // runs after the returned st.Col is captured
	st.Par = o.Par
	var stats Stats
	for r := 0; r < maxRounds; r++ {
		if err := o.Par.Err(); err != nil {
			return nil, stats, err
		}
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			break
		}
		sp := trace.Begin(o.Trace, "lowdeg", "trial-round", r, len(parts))
		cert, prop, err := sel(st, parts, uint64(r), o)
		if err != nil {
			sp.End(0, 0, 0)
			return nil, stats, err
		}
		stats.Certificates = append(stats.Certificates, cert)
		stats.Rounds++
		if cert.Score == 0 {
			// No seed colors anything (tiny family on adversarial state):
			// force progress by greedily coloring the lowest live node.
			v := parts[0]
			c, err := firstFree(st, v)
			if err != nil {
				sp.End(cert.Evals, 0, 0)
				return nil, stats, err
			}
			st.SetColor(v, c)
			stats.GreedyFallback++
			sp.End(cert.Evals, 1, 0)
			continue
		}
		colored := st.Apply(prop)
		sp.End(cert.Evals, colored, 0)
	}
	if err := hknt.FinishGreedy(st); err != nil {
		return nil, stats, err
	}
	return st.Col, stats, nil
}

func firstFree(st *hknt.State, v int32) (int32, error) {
	for _, c := range st.Rem[v] {
		free := true
		for _, u := range st.In.G.Neighbors(v) {
			if st.Col.Colors[u] == c {
				free = false
				break
			}
		}
		if free {
			return c, nil
		}
	}
	return d1lc.Uncolored, fmt.Errorf("lowdeg: node %d has no free color (invalid instance)", v)
}

// MaxComponentSize reports the largest component of g: the shattering
// metric of experiment E5.
func MaxComponentSize(g *graph.Graph) int {
	_, sizes := graph.Components(g)
	maxS := 0
	for _, s := range sizes {
		if int(s) > maxS {
			maxS = int(s)
		}
	}
	return maxS
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
