package mis

import (
	"fmt"
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// TestRoundEngineSeedMajorMatchesChunkMajorOracle pins the Luby round
// engine to the naive oracle seed by seed: for every seed, the engine's
// undecided count equals naiveScorer's, and both selection strategies
// equal condexp.SelectNaive over that scorer — across workers 1, 4 and
// the process default (run under -race in CI), on a fresh round and on a
// partially-decided state. The name is kept from the chunk-major table
// comparison this check replaced.
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
			naive := naiveScorer(nil, g, tc.state, gen, chunkOf, len(parts))

			eng := newRoundEngine(g, tc.state, parts, gen, chunkOf, n)
			for seed := uint64(0); seed < 1<<seedBits; seed++ {
				if got, want := eng.score(seed), naive(seed); got != want {
					t.Fatalf("seed %d: engine score %d, naive %d", seed, got, want)
				}
			}
			for _, w := range []int{1, 4, 0} {
				for _, bitwise := range []bool{false, true} {
					o := Options{SeedBits: seedBits, Bitwise: bitwise, Par: par.NewRunner(w)}
					got, _, err := newRoundEngine(g, tc.state, parts, gen, chunkOf, n).selectSeedTable(o)
					if err != nil {
						t.Fatal(err)
					}
					want, err := condexp.SelectNaive(o.Par, seedBits, bitwise, naive)
					if err != nil {
						t.Fatal(err)
					}
					if got.Seed != want.Seed || got.Score != want.Score || got.SumScores != want.SumScores {
						t.Fatalf("w=%d bitwise=%v: engine %+v, naive %+v", w, bitwise, got, want)
					}
				}
			}
		})
	}
}

// TestTableScoringMatchesNaiveSharedChunks drives Luby rounds under the
// fabricated chunk layout chunkOf[v] = v mod 3, so every chunk has many
// readers, each through its own lazy cursor, and checks every round
// against the naive oracle's eager expansion: same seed, score, sum and
// certificate, and the same states after each commit — across workers 1,
// 4 and the process default, both PRG families and both selection
// strategies (run under -race in CI).
func TestTableScoringMatchesNaiveSharedChunks(t *testing.T) {
	const seedBits = 6
	g := graph.Gnp(150, 0.05, 4)
	n := g.N()
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v % 3)
	}
	gens := []prg.PRG{
		prg.NewKWise(4, seedBits, n*priorityBits),
		prg.NewNisan(64, 7, seedBits),
	}
	for _, gen := range gens {
		for _, workers := range []int{1, 4, 0} {
			for _, bitwise := range []bool{false, true} {
				name := fmt.Sprintf("%s/w=%d/bitwise=%v", gen.Name(), workers, bitwise)
				o := Options{SeedBits: seedBits, Bitwise: bitwise, Par: par.NewRunner(workers)}
				stT, stN := make([]NodeState, n), make([]NodeState, n)
				for round := 0; ; round++ {
					parts := undecidedNodes(stT)
					if len(parts) == 0 {
						break
					}
					if round == 4*log2(n+2)+8 {
						t.Fatalf("%s: no convergence", name)
					}
					selT, join, err := newRoundEngine(g, stT, parts, gen, chunkOf, n).selectSeedTable(o)
					if err != nil {
						t.Fatal(err)
					}
					selN, err := selectSeedNaive(g, stN, gen, chunkOf, len(parts), o)
					if err != nil {
						t.Fatal(err)
					}
					if selT.Seed != selN.Seed || selT.Score != selN.Score ||
						selT.SumScores != selN.SumScores || selT.MeanUpper() != selN.MeanUpper() {
						t.Fatalf("%s round %d diverges:\ntable %+v\nnaive %+v", name, round, selT, selN)
					}
					applyJoinMask(g, stT, join)
					src, err := prg.NewChunkedSource(gen, selN.Seed, chunkOf, n, priorityBits)
					if err != nil {
						t.Fatal(err)
					}
					applyJoin(g, stN, lubyRound(o.Par, g, stN, src.BitsFor))
					for v := range stT {
						if stT[v] != stN[v] {
							t.Fatalf("%s round %d: states diverge at node %d", name, round, v)
						}
					}
				}
			}
		}
	}
}
