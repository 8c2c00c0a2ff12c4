package lowdeg

import (
	"context"
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// proposeRound is the naive trial proposal for a (seed, round) pair,
// built in fresh n-sized arrays: node v's candidate is
// Rem[v][h(seed, v, round) mod |Rem[v]|], and the winners are the
// candidates no neighbor duplicated.
func proposeRound(st *hknt.State, parts []int32, seed, round uint64) hknt.Proposal {
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
	prop.RecomputeWin(st.Par)
	return prop
}

// countWins scores a seed by the number of nodes its proposal colors.
func countWins(st *hknt.State, parts []int32, seed, round uint64) int {
	prop := proposeRound(st, parts, seed, round)
	wins := 0
	for _, v := range parts {
		if prop.Color[v] != d1lc.Uncolored {
			wins++
		}
	}
	return wins
}

// selectNaive is the trialSelector the engine is tested against: Select
// over −countWins, one fresh proposal per seed, with the engine's floor
// (every participant with a non-empty palette wins), and a fresh
// re-proposal of the selected seed through proposeRound.
func selectNaive(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, hknt.Proposal, error) {
	var floor int64
	for _, v := range parts {
		if len(st.Rem[v]) > 0 {
			floor--
		}
	}
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, floor, func(seed uint64) int64 {
		return -int64(countWins(st, parts, seed, round))
	})
	if err != nil || res.Score == 0 {
		return res, hknt.Proposal{}, err
	}
	return res, proposeRound(st, parts, res.Seed, round), nil
}

// iterateNaive is IterativeDerandomized with every round's seed selected
// by the naive oracle.
func iterateNaive(in *d1lc.Instance, o Options) (*d1lc.Coloring, Stats, error) {
	return iterate(context.Background(), in, o, 8*log2(in.G.N()+2)+16, selectNaive)
}

// TestTrialEngineSeedMajorMatchesChunkMajorOracle pins the trial round
// engine to the naive oracle seed by seed: for every seed, the engine's
// −wins equals the naive −countWins, and both selection strategies and
// the selected proposal equal selectNaive's — across workers 1, 4 and the
// process default (run under -race in CI), over several rounds so the
// live set and palettes shrink between selections. The name is kept from
// the chunk-major table comparison this check replaced.
func TestTrialEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	const seedBits = 6
	in := d1lc.RandomPalettes(graph.Gnp(120, 0.06, 3), 2, 60, 7)
	st := hknt.NewState(in)

	for round := uint64(0); round < 3; round++ {
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			break
		}
		naive := func(seed uint64) int64 { return -int64(countWins(st, parts, seed, round)) }
		eng := newTrialEngine(st, parts, round)
		for seed := uint64(0); seed < 1<<seedBits; seed++ {
			if got, want := eng.score(seed), naive(seed); got != want {
				t.Fatalf("round=%d seed %d: engine score %d, naive %d", round, seed, got, want)
			}
		}
		for _, w := range []int{1, 4, 0} {
			for _, bitwise := range []bool{false, true} {
				o := Options{SeedBits: seedBits, Bitwise: bitwise, Par: par.NewRunner(w)}
				got, a, err := selectByEngine(st, parts, round, o)
				if err != nil {
					t.Fatal(err)
				}
				want, b, err := selectNaive(st, parts, round, o)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("round=%d w=%d bitwise=%v: engine %+v, naive %+v", round, w, bitwise, got, want)
				}
				for v := range a.Color {
					if a.Color[v] != b.Color[v] || a.Win.Test(v) != b.Win.Test(v) {
						t.Fatalf("round=%d w=%d bitwise=%v: proposals differ at node %d", round, w, bitwise, v)
					}
				}
			}
		}

		// Advance the state with the selected proposal so later rounds
		// exercise shrunken live sets and thinner palettes.
		sel, prop, err := selectByEngine(st, parts, round, Options{SeedBits: seedBits})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Score == 0 {
			break
		}
		st.Apply(prop)
	}
}
