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
// engine's seed-major table bit-identical to the retained chunk-major
// oracle (condexp.BuildChunkMajorOracle over the engine's own fill):
// cells transpose one-for-one, totals agree in seed order, and both
// selection strategies match — across workers 1, 4 and the process
// default (run under -race in CI), over several rounds so the live set
// and palettes shrink between tables.
func TestTrialEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	const seedBits = 6
	in := d1lc.RandomPalettes(graph.Gnp(120, 0.06, 3), 2, 60, 7)
	st := hknt.NewState(in)
	numSeeds := 1 << seedBits

	for round := uint64(0); round < 3; round++ {
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			break
		}
		oracleEng := newTrialEngine(st, parts, round)
		oc, ot := condexp.BuildChunkMajorOracle(numSeeds, oracleEng.nChunks, oracleEng.fill)

		for _, w := range []int{1, 4, 0} {
			eng := newTrialEngine(st, parts, round)
			tbl, err := condexp.BuildTable(par.NewRunner(w), numSeeds, eng.nChunks, eng.fill)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.VerifyAgainstChunkMajorOracle(oc, ot, seedBits); err != nil {
				t.Fatalf("round=%d w=%d: %v", round, w, err)
			}
		}

		// Advance the state with the selected proposal so later rounds
		// exercise shrunken live sets and thinner palettes.
		eng := newTrialEngine(st, parts, round)
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
