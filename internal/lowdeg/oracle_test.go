package lowdeg

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
)

// TestTrialEngineSeedMajorMatchesChunkMajorOracle pins the trial round
// engine to the naive oracle seed by seed: for every seed, the engine's
// −wins equals the naive −countWins, and both selection strategies equal
// condexp.SelectNaive over that scorer — across workers 1, 4 and the
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
				got, err := newTrialEngine(st, parts, round).selectSeedTable(o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := condexp.SelectNaive(o.Par, seedBits, bitwise, naive)
				if err != nil {
					t.Fatal(err)
				}
				if got.Seed != want.Seed || got.Score != want.Score || got.SumScores != want.SumScores {
					t.Fatalf("round=%d w=%d bitwise=%v: engine %+v, naive %+v", round, w, bitwise, got, want)
				}
			}
		}

		// Advance the state with the selected proposal so later rounds
		// exercise shrunken live sets and thinner palettes.
		sel, err := eng.selectSeedTable(Options{SeedBits: seedBits})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Score == 0 {
			break
		}
		st.Apply(eng.proposalFor(sel.Seed))
	}
}
