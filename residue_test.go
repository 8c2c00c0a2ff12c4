package parcolor

import (
	"context"
	"testing"
)

// TestBelowLowDegGolden pins the deterministic solver's coloring, color
// count and Rounds on instances where every base instance, or a recursion
// level of one, has maximum degree below LowDeg, so its schedule is empty
// and the greedy base case colors it in place. The values were recorded
// while such levels still ran the full schedule analysis and recursed
// through a copy of the instance; skipping both must not move them.
func TestBelowLowDegGolden(t *testing.T) {
	cases := []struct {
		gen    string
		n      int
		seed   uint64
		hash   uint64
		colors int
		rounds int
	}{
		{"gnp-sparse", 100_000, 1, 0x1654e45f6f31be44, 7, 135},
		{"gnp-sparse", 100_000, 2, 0xd97ed8799a5226d2, 7, 135},
		{"gnp-sparse", 100_000, 3, 0x8bcade74e1479861, 7, 135},
		{"regular", 100_000, 1, 0x70122b6980dae935, 7, 135},
		{"powerlaw", 10_000, 1, 0x8bd18eb0970c42ae, 41, 269},
	}
	for _, c := range cases {
		in := TrivialPalettes(GenerateGraph(c.gen, c.n, c.seed))
		for _, workers := range []int{1, 4} {
			res, err := mustSolver(t, WithWorkers(workers)).Solve(context.Background(), in)
			if err != nil {
				t.Fatalf("%s n=%d seed=%d workers=%d: %v", c.gen, c.n, c.seed, workers, err)
			}
			if got := goldenOf(res); got.colors != c.hash || res.DistinctColors != c.colors || res.Rounds != c.rounds {
				t.Errorf("%s n=%d seed=%d workers=%d: got %#x, %d colors, %d rounds; want %#x, %d, %d",
					c.gen, c.n, c.seed, workers, got.colors, res.DistinctColors, res.Rounds, c.hash, c.colors, c.rounds)
			}
		}
	}
}

// TestMaxGreedyResidue checks Result.MaxGreedyResidue: a sparse G(n,p)
// has no node at LowDeg, so one greedy base case colors all of it, while
// a Chung–Lu graph is split into several base instances and no greedy
// base case sees all of it. The other algorithms report 0.
func TestMaxGreedyResidue(t *testing.T) {
	cases := []struct {
		gen     string
		n       int
		partial bool
	}{
		{"gnp-sparse", 10_000, false},
		{"chunglu", 3000, true},
	}
	for _, c := range cases {
		in := TrivialPalettes(GenerateGraph(c.gen, c.n, 1))
		res, err := mustSolver(t).Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		n, got := in.G.N(), res.MaxGreedyResidue
		if c.partial && (got <= 0 || got >= n) || !c.partial && got != n {
			t.Errorf("%s n=%d: MaxGreedyResidue = %d", c.gen, n, got)
		}
	}
	for _, alg := range []Algorithm{Randomized, GreedySequential, LowDegreeDeterministic, JonesPlassmann, LubyColoring} {
		res, err := mustSolver(t, WithAlgorithm(alg)).Solve(context.Background(), TrivialPalettes(GenerateGraph("gnp-sparse", 500, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxGreedyResidue != 0 {
			t.Errorf("%s: MaxGreedyResidue = %d, want 0", alg, res.MaxGreedyResidue)
		}
	}
}
