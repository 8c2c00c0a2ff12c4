package mis

import (
	"context"
	"fmt"
	"testing"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// naiveScorer is the oracle's objective — the pessimistic estimator,
// nodes still undecided after the round — with a fresh eager expansion
// and full-graph simulation per seed.
func naiveScorer(r *par.Runner, g *graph.Graph, state []NodeState, gen prg.PRG, chunkOf []int32, undecided int) condexp.Scorer {
	n := g.N()
	return func(seed uint64) int64 {
		src, err := prg.NewChunkedSource(gen, seed, chunkOf, n, priorityBits)
		if err != nil {
			panic(err)
		}
		join := lubyRound(r, g, state, src.BitsFor)
		return int64(undecided) - int64(simulateDecided(r, g, state, join))
	}
}

// simulateDecided counts how many currently-undecided nodes would become
// decided if join were applied, without mutating state.
func simulateDecided(r *par.Runner, g *graph.Graph, state []NodeState, join []bool) int {
	return int(r.ReduceInt(g.N(), func(i int) int64 {
		v := int32(i)
		if state[v] != Undecided {
			return 0
		}
		if join[v] {
			return 1
		}
		for _, u := range g.Neighbors(v) {
			if join[u] {
				return 1
			}
		}
		return 0
	}))
}

// selectNaive is the roundSelector the engine is tested against: Select
// over naiveScorer with the engine's floor (0: no participant left
// undecided), then one eager re-simulation of the selected seed, its join
// set copied into a mask.
func selectNaive(g *graph.Graph, state []NodeState, parts []int32, gen prg.PRG, chunkOf []int32, o Options) (condexp.Result, bitset.Mask, error) {
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, 0, naiveScorer(o.Par, g, state, gen, chunkOf, len(parts)))
	if err != nil {
		return condexp.Result{}, nil, err
	}
	n := g.N()
	src, _ := prg.NewChunkedSource(gen, res.Seed, chunkOf, n, priorityBits)
	join := lubyRound(o.Par, g, state, src.BitsFor)
	mask := bitset.New(n)
	mask.Fill(n, func(v int) bool { return join[v] })
	return res, mask, nil
}

// derandomizedNaive is Derandomized with every round's seed selected by
// the naive oracle.
func derandomizedNaive(g *graph.Graph, o Options) (Result, error) {
	return derandomized(context.Background(), g, o, selectNaive)
}

// TestRoundEngineSeedMajorMatchesChunkMajorOracle pins the Luby round
// engine to the naive oracle seed by seed: for every seed, the engine's
// undecided count equals naiveScorer's, and both selection strategies
// equal selectNaive's, join set included — across workers 1, 4 and
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
					got, gotJoin, err := selectByEngine(g, tc.state, parts, gen, chunkOf, o)
					if err != nil {
						t.Fatal(err)
					}
					want, wantJoin, err := selectNaive(g, tc.state, parts, gen, chunkOf, o)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("w=%d bitwise=%v: engine %+v, naive %+v", w, bitwise, got, want)
					}
					for v := 0; v < n; v++ {
						if gotJoin.Test(v) != wantJoin.Test(v) {
							t.Fatalf("w=%d bitwise=%v: join sets differ at node %d", w, bitwise, v)
						}
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
					selT, joinT, err := selectByEngine(g, stT, parts, gen, chunkOf, o)
					if err != nil {
						t.Fatal(err)
					}
					selN, joinN, err := selectNaive(g, stN, parts, gen, chunkOf, o)
					if err != nil {
						t.Fatal(err)
					}
					if selT != selN {
						t.Fatalf("%s round %d diverges:\ntable %+v\nnaive %+v", name, round, selT, selN)
					}
					applyJoinMask(g, stT, joinT)
					applyJoinMask(g, stN, joinN)
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
