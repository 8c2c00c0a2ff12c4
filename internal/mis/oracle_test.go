package mis

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// TestRoundEngineSeedMajorMatchesChunkMajorOracle pins the Luby round
// engine's seed-major table bit-identical to the retained chunk-major
// oracle (condexp.BuildChunkMajorOracle over the engine's own fill):
// cells transpose one-for-one, totals agree in seed order, and both
// selection strategies match — across workers 1, 4 and the process
// default (run under -race in CI), on a fresh round and on a
// partially-decided state.
func TestRoundEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	const seedBits = 6
	g := graph.Mixed(130, 5)
	n := g.N()
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}

	fresh := make([]NodeState, n)
	partial := make([]NodeState, n)
	for v := 0; v < n; v += 7 {
		if partial[v] != Undecided {
			continue
		}
		partial[v] = InSet
		for _, u := range g.Neighbors(int32(v)) {
			partial[u] = Out
		}
	}
	for _, tc := range []struct {
		name  string
		state []NodeState
	}{{"fresh", fresh}, {"partial", partial}} {
		t.Run(tc.name, func(t *testing.T) {
			parts := undecidedNodes(tc.state)
			if len(parts) == 0 {
				t.Fatal("degenerate case: no undecided nodes")
			}
			gen := prg.NewKWise(4, seedBits, n*priorityBits)
			numSeeds := 1 << seedBits

			oracleEng := newRoundEngine(g, tc.state, parts, gen, chunkOf, n)
			oc, ot := condexp.BuildChunkMajorOracle(numSeeds, oracleEng.nChunks, oracleEng.fill)

			for _, w := range []int{1, 4, 0} {
				eng := newRoundEngine(g, tc.state, parts, gen, chunkOf, n)
				tbl, err := condexp.BuildTable(par.NewRunner(w), numSeeds, eng.nChunks, eng.fill)
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.VerifyAgainstChunkMajorOracle(oc, ot, seedBits); err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
			}
		})
	}
}
