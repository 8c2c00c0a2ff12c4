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
	"parcolor/internal/rng"
	"parcolor/internal/trace"
)

// Options configures the iterative solver.
type Options struct {
	// SeedBits is the per-round seed space (default 10 → 1024 seeds).
	SeedBits int
	// MaxRounds caps trial rounds before greedy takeover (default 8·log₂n+16).
	MaxRounds int
	// Bitwise switches seed selection from flat enumeration to the
	// bit-by-bit method of conditional expectations (same guarantee; on the
	// engine path the branch means are subset sums of the per-seed totals).
	Bitwise bool
	// NaiveScoring forces the monolithic per-seed rescoring oracle instead
	// of the incremental scoring engine (engine.go). Both produce
	// identical results (seed, score, certificate, coloring); the naive
	// path exists for differential tests and ablation baselines.
	NaiveScoring bool
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
// conditional-expectation-selected trial rounds. Seed scoring runs on the
// incremental scoring engine (engine.go) unless
// Options.NaiveScoring forces the per-seed oracle. Always returns a
// complete proper coloring (or an error only for invalid instances and
// cancellation).
//
// ctx cancels the run between rounds and inside every seed walk; on
// cancellation IterativeDerandomized returns ctx's error and no coloring.
// Parallelism is scoped by o.Par (nil = process default).
func IterativeDerandomized(ctx context.Context, in *d1lc.Instance, o Options) (*d1lc.Coloring, Stats, error) {
	n := in.G.N()
	if o.SeedBits == 0 {
		o.SeedBits = 10
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 8*log2(n+2) + 16
	}
	o.Par = o.Par.WithContext(ctx)
	st := hknt.NewState(in)
	defer st.Release() // runs after the returned st.Col is captured
	st.Par = o.Par
	var stats Stats
	for r := 0; r < o.MaxRounds; r++ {
		if err := o.Par.Err(); err != nil {
			return nil, stats, err
		}
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			break
		}
		sp := trace.Begin(o.Trace, "lowdeg", "trial-round", r, len(parts))
		var sel condexp.Result
		var eng *trialEngine
		var err error
		if o.NaiveScoring {
			sel, err = selectSeedNaive(st, parts, uint64(r), o)
		} else {
			eng = newTrialEngine(st, parts, uint64(r))
			sel, err = eng.selectSeedTable(o)
		}
		if err != nil {
			sp.End(0, 0, 0)
			return nil, stats, err
		}
		stats.Certificates = append(stats.Certificates, sel)
		stats.Rounds++
		if sel.Score == 0 {
			// No seed colors anything (tiny family on adversarial state):
			// force progress by greedily coloring the lowest live node.
			v := parts[0]
			c, err := firstFree(st, v)
			if err != nil {
				sp.End(sel.Evals, 0, 0)
				return nil, stats, err
			}
			st.SetColor(v, c)
			stats.GreedyFallback++
			sp.End(sel.Evals, 1, 0)
			continue
		}
		var prop hknt.Proposal
		if eng != nil {
			prop = eng.proposalFor(sel.Seed)
		} else {
			prop = proposeRound(st, parts, sel.Seed, uint64(r))
		}
		colored := st.Apply(prop)
		sp.End(sel.Evals, colored, 0)
	}
	if err := hknt.FinishGreedy(st); err != nil {
		return nil, stats, err
	}
	return st.Col, stats, nil
}

// selectSeedNaive is the monolithic oracle: one full proposal plus score
// per evaluated seed. It is the path the engine is differentially tested
// against. A cancelled runner surfaces the context error.
func selectSeedNaive(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, error) {
	return condexp.SelectNaive(o.Par, o.SeedBits, o.Bitwise, func(seed uint64) int64 {
		return -int64(countWins(st, parts, seed, round))
	})
}

// proposeRound computes the trial proposal for a (seed, round) pair and
// finishes its win mask, ready to commit.
func proposeRound(st *hknt.State, parts []int32, seed, round uint64) hknt.Proposal {
	prop := proposeRoundColors(st, parts, seed, round)
	prop.RecomputeWin(st.Par)
	return prop
}

// proposeRoundColors computes the colors array only: node v's candidate
// is Rem[v][h(seed, v, round) mod |Rem[v]|]; winners are the candidates
// no neighbor duplicated. The win mask is left empty — the naive scoring
// oracle counts wins by scanning the sentinels and never commits these
// proposals, so it skips the mask pass it would pay once per seed.
func proposeRoundColors(st *hknt.State, parts []int32, seed, round uint64) hknt.Proposal {
	n := st.In.G.N()
	cand := make([]int32, n)
	for i := range cand {
		cand[i] = d1lc.Uncolored
	}
	st.Par.For(len(parts), func(i int) {
		v := parts[i]
		if len(st.Rem[v]) == 0 {
			return
		}
		h := rng.Hash3(seed, uint64(v), round)
		cand[v] = st.Rem[v][h%uint64(len(st.Rem[v]))]
	})
	prop := hknt.NewProposal(n)
	st.Par.For(len(parts), func(i int) {
		v := parts[i]
		c := cand[v]
		if c == d1lc.Uncolored {
			return
		}
		for _, u := range st.In.G.Neighbors(v) {
			if cand[u] == c {
				return
			}
		}
		prop.Color[v] = c
	})
	return prop
}

// countWins scores a seed by the number of nodes its proposal colors.
func countWins(st *hknt.State, parts []int32, seed, round uint64) int {
	prop := proposeRoundColors(st, parts, seed, round)
	wins := 0
	for _, v := range parts {
		if prop.Color[v] != d1lc.Uncolored {
			wins++
		}
	}
	return wins
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
