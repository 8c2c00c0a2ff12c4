package parcolor

import (
	"context"
	"slices"
	"testing"
)

// FuzzSolve drives every algorithm over arbitrary small instances at the
// solver boundary. data[0] mod 49 is the node count n ≤ 48, and the
// remaining bytes are edges, as pairs mod n: self-loops and duplicate
// edges are allowed, and GraphBuilder drops them. palettes picks trivial,
// Δ+1 or random palettes (with 0–3 extra colors), and seed seeds the
// randomized algorithms and the random palettes. Each algorithm, with
// degree sharding off and on, must solve without error at one worker and
// at four, both colorings must verify, and they must be equal: worker
// bounds never change results.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint64(1))                                            // n = 0
	f.Add([]byte{1, 0, 0}, uint8(1), uint64(2))                                     // n = 1, a self-loop
	f.Add([]byte{6, 0, 1, 1, 0, 0, 1, 2, 3, 3, 2, 4, 4, 5, 0}, uint8(2), uint64(3)) // duplicate edges
	f.Fuzz(func(t *testing.T, data []byte, palettes uint8, seed uint64) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%49, data[1:]
		}
		b := NewGraphBuilder(n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		g := b.Build()
		var in *Instance
		switch palettes % 3 {
		case 0:
			in = TrivialPalettes(g)
		case 1:
			in = DeltaPlus1Palettes(g)
		default:
			in = RandomPalettes(g, int(palettes/3%4), 2*(g.MaxDegree()+1), seed)
		}
		for _, name := range AlgorithmNames() {
			alg, err := AlgorithmByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, shard := range []bool{false, true} {
				var cols [2][]int32
				for i, workers := range []int{1, 4} {
					s, err := NewSolver(WithAlgorithm(alg), WithDegreeShard(shard), WithWorkers(workers), WithSeed(seed))
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Solve(context.Background(), in)
					if err != nil {
						t.Fatalf("%s shard=%v workers=%d: %v", name, shard, workers, err)
					}
					if err := Verify(in, res.Coloring); err != nil {
						t.Fatalf("%s shard=%v workers=%d: %v", name, shard, workers, err)
					}
					cols[i] = res.Coloring.Colors
				}
				if !slices.Equal(cols[0], cols[1]) {
					t.Fatalf("%s shard=%v: coloring at 4 workers differs from 1 worker", name, shard)
				}
			}
		}
	})
}
