package experiments

import (
	"context"
	"parcolor/internal/d1lc"
	"parcolor/internal/deframe"
	"parcolor/internal/graph"
	"parcolor/internal/greedy"
	"parcolor/internal/hknt"
	"parcolor/internal/lowdeg"
	"parcolor/internal/prg"
	"parcolor/internal/stats"
)

func init() { register("E13", e13SolutionQuality) }

// e13SolutionQuality compares the number of distinct colors each solver
// uses on a shared (Δ+1)-palette instance against the sequential
// degeneracy-order optimum-ish baseline (≤ degeneracy+1 colors). Parallel
// algorithms trade color-count quality for round efficiency; the table
// quantifies the trade.
func e13SolutionQuality(cfg Config) *stats.Table {
	t := stats.New("E13", "Solution quality: distinct colors used",
		"degeneracy+1 is the sequential quality baseline; parallel solvers trade colors for rounds",
		"graph", "n", "maxDeg", "degeneracy+1", "greedyDegen", "greedyID", "deterministic", "randomized", "lowdeg")
	for _, w := range []string{"gnp-sparse", "powerlaw", "mixed"} {
		n := cfg.sizes()[1]
		g, err := graph.Named(w, n, cfg.Seed)
		if err != nil {
			panic(err)
		}
		in := d1lc.DeltaPlus1Palettes(g)
		_, degen := graph.DegeneracyOrder(g)

		colDegen, _ := greedy.Color(in, greedy.ByDegeneracy)
		colID, _ := greedy.Color(in, greedy.ByID)
		det, _, errDet := deframe.Run(context.Background(), in, deframe.Options{SeedBits: cfg.SeedBits})
		rnd, _, _, errRnd := hknt.RandomizedColor(nil, in, cfg.Seed, hknt.Tunables{})
		low, _, errLow := lowdeg.IterativeDerandomized(context.Background(), in, lowdeg.Options{SeedBits: 8})
		if errDet != nil || errRnd != nil || errLow != nil {
			t.Add(w, g.N(), g.MaxDegree(), degen+1, -1, -1, -1, -1, -1)
			continue
		}
		t.Add(w, g.N(), g.MaxDegree(), degen+1,
			greedy.DistinctColors(colDegen), greedy.DistinctColors(colID),
			greedy.DistinctColors(det), greedy.DistinctColors(rnd), greedy.DistinctColors(low))
	}
	return t
}

func init() { register("E14", e14PRGBias) }

// e14PRGBias measures the empirical (t,ε) of each generator family against
// the small-junta test battery (parities and signed conjunctions over the
// first 16 output bits), including the Proposition 8 brute-force generator
// whose bias is certified ≤ 1/8 by its construction search.
func e14PRGBias(cfg Config) *stats.Table {
	t := stats.New("E14", "PRG statistical bias (Definition 6/7 empirically)",
		"max |P_seeds[T accepts] − mean(T)| over parities+conjunctions on 16 bits",
		"prg", "seedBits", "outputBits", "parityBias", "conjBias")
	tests := prg.ParityTests(16, 2)
	conj := prg.ConjunctionTests(16, 1)
	gens := []prg.PRG{
		prg.NewKWise(2, 8, 64),
		prg.NewKWise(4, 8, 64),
		prg.NewKWise(8, 8, 64),
		prg.NewNisan(16, 2, 8),
	}
	if bf, err := prg.FindBruteForce(8, 16, tests, 1, 8, 300); err == nil {
		gens = append(gens, bf)
	}
	if cfg.Quick {
		gens = gens[:3]
	}
	for _, g := range gens {
		t.Add(g.Name(), g.SeedBits(), g.OutputBits(), prg.MaxBias(g, tests), prg.MaxBias(g, conj))
	}
	return t
}
