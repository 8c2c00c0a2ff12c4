package parcolor

import (
	"context"
	"testing"
	"testing/quick"
)

// solve runs one solve of in on a fresh Solver built from opts.
func solve(in *Instance, opts ...Option) (*Result, error) {
	s, err := NewSolver(opts...)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), in)
}

func TestSolveAllAlgorithmsProper(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 250, 1))
	for _, alg := range []Algorithm{Deterministic, Randomized, GreedySequential, LowDegreeDeterministic} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := solve(in, WithAlgorithm(alg), WithSeedBits(6))
			if err != nil {
				t.Fatal(err)
			}
			if res.Coloring.UncoloredCount() != 0 {
				t.Fatal("incomplete")
			}
			if res.DistinctColors == 0 {
				t.Fatal("no colors counted")
			}
		})
	}
}

func TestSolveDeterministicReproducible(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("gnp-dense", 150, 3))
	a, err := solve(in, WithSeedBits(6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(in, WithSeedBits(6))
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring.Colors {
		if a.Coloring.Colors[v] != b.Coloring.Colors[v] {
			t.Fatal("deterministic solver not reproducible")
		}
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	g := GenerateGraph("complete", 4, 0)
	in := NewInstance(g, [][]int32{{0}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}})
	if _, err := solve(in); err == nil {
		t.Fatal("short palette accepted")
	}
}

func TestSolveOnEveryGenerator(t *testing.T) {
	for _, name := range GraphNames() {
		t.Run(name, func(t *testing.T) {
			in := TrivialPalettes(GenerateGraph(name, 120, 2))
			res, err := solve(in, WithSeedBits(5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds < 0 {
				t.Fatal("negative rounds")
			}
		})
	}
}

func TestEdgeColoringInstance(t *testing.T) {
	g := GenerateGraph("regular", 60, 4)
	in, edges := EdgeColoringInstance(g)
	res, err := solve(in, WithSeedBits(5))
	if err != nil {
		t.Fatal(err)
	}
	// Proper edge coloring: edges sharing an endpoint get distinct colors.
	colorOf := map[[2]int32]int32{}
	for i, e := range edges {
		colorOf[e] = res.Coloring.Colors[i]
	}
	for i, e := range edges {
		for j, f := range edges {
			if i >= j {
				continue
			}
			shares := e[0] == f[0] || e[0] == f[1] || e[1] == f[0] || e[1] == f[1]
			if shares && res.Coloring.Colors[i] == res.Coloring.Colors[j] {
				t.Fatalf("edges %v,%v share endpoint and color", e, f)
			}
		}
	}
	// Color count bound: ≤ 2Δ−1.
	if res.DistinctColors > 2*g.MaxDegree()-1 {
		t.Fatalf("used %d colors > 2Δ−1 = %d", res.DistinctColors, 2*g.MaxDegree()-1)
	}
}

func TestMISBothModes(t *testing.T) {
	g := GenerateGraph("gnp-sparse", 200, 5)
	det, err := mustSolver(t).MIS(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	rnd := MISRandomized(g, 9)
	check := func(set []int32, label string) {
		inSet := map[int32]bool{}
		for _, v := range set {
			inSet[v] = true
		}
		for _, v := range set {
			for _, u := range g.Neighbors(v) {
				if inSet[u] {
					t.Fatalf("%s: not independent", label)
				}
			}
		}
		// maximality
		for v := int32(0); v < int32(g.N()); v++ {
			if inSet[v] {
				continue
			}
			dominated := false
			for _, u := range g.Neighbors(v) {
				if inSet[u] {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("%s: not maximal at %d", label, v)
			}
		}
	}
	check(det.InSet, "deterministic")
	check(rnd.InSet, "randomized")
}

func TestWorkersOption(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("gnp-sparse", 100, 6))
	a, err := solve(in, WithWorkers(1), WithSeedBits(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(in, WithWorkers(4), WithSeedBits(5))
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Coloring.Colors {
		if a.Coloring.Colors[v] != b.Coloring.Colors[v] {
			t.Fatal("worker count changed deterministic output")
		}
	}
}

func TestSolvePropertyRandomInstances(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 4
		g := GenerateGraph("gnp-dense", n, seed)
		in := RandomPalettes(g, 1, 3*n, seed)
		res, err := solve(in, WithSeedBits(4))
		if err != nil {
			return false
		}
		return Verify(in, res.Coloring) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRoundTrip(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	in := TrivialPalettes(g)
	res, err := solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coloring.Colors[0] == res.Coloring.Colors[1] {
		t.Fatal("improper")
	}
}

func TestSolveOnMPC(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("gnp-sparse", 60, 2))
	res, err := mustSolver(t).SolveOnMPC(context.Background(), in, 1<<14, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coloring.UncoloredCount() != 0 {
		t.Fatal("incomplete")
	}
	if res.Violations != 0 {
		t.Fatalf("space violations: %d", res.Violations)
	}
	if res.TrialRounds == 0 || res.MPCRounds <= res.TrialRounds {
		t.Fatalf("round accounting: %+v", res)
	}
}
