// Benchmarks regenerating every experiment table of internal/experiments
// (one benchmark per table, each operationalizing one quantitative claim
// of the paper; cmd/mpcbench prints the full sweeps), plus end-to-end
// solver benchmarks.
//
//	go test -bench=. -benchmem
//	go test -bench BenchmarkE1 -benchtime 1x  # one full E1 table
package parcolor_test

import (
	"context"
	"testing"

	"parcolor"
	"parcolor/internal/deframe"
	"parcolor/internal/experiments"
	"parcolor/internal/hknt"
)

func benchCfg(b *testing.B) experiments.Config {
	return experiments.Config{Quick: testing.Short() || b.N < 0, Seed: 42, SeedBits: 5}
}

func runExperiment(b *testing.B, id string) {
	cfg := benchCfg(b)
	cfg.Quick = true // keep per-iteration cost bounded; cmd/mpcbench runs full sweeps
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkE1DeterministicD1LC regenerates Table E1 (Theorem 1 rounds/correctness).
func BenchmarkE1DeterministicD1LC(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2RandomizedD1LC regenerates Table E2 (Lemma 4 baseline).
func BenchmarkE2RandomizedD1LC(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3DeferralBound regenerates Table E3 (Lemma 10 deferral census).
func BenchmarkE3DeferralBound(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4PartitionQuality regenerates Table E4 (Lemma 23 properties).
func BenchmarkE4PartitionQuality(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5Shattering regenerates Table E5 (residue component structure).
func BenchmarkE5Shattering(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6PRGAblation regenerates Table E6 (generator family sweep).
func BenchmarkE6PRGAblation(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7SlackColor regenerates Table E7 (SlackColor progress trace).
func BenchmarkE7SlackColor(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8MIS regenerates Table E8 (Definition 5 worked example).
func BenchmarkE8MIS(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9SpaceAccounting regenerates Table E9 (MPC space enforcement).
func BenchmarkE9SpaceAccounting(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Parallelism regenerates Table E10 (worker scaling).
func BenchmarkE10Parallelism(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11ChunkModes regenerates Table E11 (chunk distribution ablation).
func BenchmarkE11ChunkModes(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12SlackColorAblation regenerates Table E12 ((s_min,κ) ablation).
func BenchmarkE12SlackColorAblation(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13SolutionQuality regenerates Table E13 (distinct-color counts).
func BenchmarkE13SolutionQuality(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkE14PRGBias regenerates Table E14 (empirical generator bias).
func BenchmarkE14PRGBias(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15ACDAblation regenerates Table E15 (ACD ε sweep).
func BenchmarkE15ACDAblation(b *testing.B) { runExperiment(b, "E15") }

// BenchmarkE16SeedSelectionProtocols regenerates Table E16 (scalar vs
// row-converge-cast MPC seed selection).
func BenchmarkE16SeedSelectionProtocols(b *testing.B) { runExperiment(b, "E16") }

// --- End-to-end solver benchmarks -------------------------------------------

func solveBench(b *testing.B, alg parcolor.Algorithm, graphName string, n int) {
	in := parcolor.TrivialPalettes(parcolor.GenerateGraph(graphName, n, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(in, parcolor.WithAlgorithm(alg), parcolor.WithSeed(uint64(i)), parcolor.WithSeedBits(5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDeframe ablates the Lemma 10 scoring engine end-to-end on
// a full derandomized run (every schedule step goes through seed
// selection): the incremental scoring engine (default) against
// the naive monolithic per-seed rescoring path, for both seed-selection
// strategies. Results are identical across the axis; only cost differs.
func BenchmarkSolveDeframe(b *testing.B) {
	in := parcolor.TrivialPalettes(parcolor.GenerateGraph("gnp-sparse", 300, 1))
	for _, cfg := range []struct {
		name          string
		naive, bitwse bool
	}{
		{"table/flat", false, false},
		{"table/bitwise", false, true},
		{"naive/flat", true, false},
		{"naive/bitwise", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			o := deframe.Options{
				SeedBits:     5,
				NaiveScoring: cfg.naive,
				Bitwise:      cfg.bitwse,
				Tunables:     hknt.Tunables{LowDeg: 4},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := deframe.Run(context.Background(), in, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveDeterministicGnp(b *testing.B) {
	solveBench(b, parcolor.Deterministic, "gnp-sparse", 300)
}

func BenchmarkSolveRandomizedGnp(b *testing.B) {
	solveBench(b, parcolor.Randomized, "gnp-sparse", 300)
}

func BenchmarkSolveGreedyGnp(b *testing.B) {
	solveBench(b, parcolor.GreedySequential, "gnp-sparse", 300)
}

func BenchmarkSolveLowDegGnp(b *testing.B) {
	solveBench(b, parcolor.LowDegreeDeterministic, "gnp-sparse", 300)
}

func BenchmarkSolveDeterministicCliques(b *testing.B) {
	solveBench(b, parcolor.Deterministic, "cliques", 300)
}

func BenchmarkMISDeterministic(b *testing.B) {
	g := parcolor.GenerateGraph("gnp-sparse", 300, 1)
	s, err := parcolor.NewSolver()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.MIS(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeColoring(b *testing.B) {
	g := parcolor.GenerateGraph("regular", 150, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, _ := parcolor.EdgeColoringInstance(g)
		if _, err := solve(in, parcolor.WithSeedBits(5)); err != nil {
			b.Fatal(err)
		}
	}
}
