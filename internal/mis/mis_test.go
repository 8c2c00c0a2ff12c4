package mis

import (
	"context"
	"testing"
	"testing/quick"

	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// mustDerand runs Derandomized with a background context and fails the
// test on error (which only cancellation can produce).
func mustDerand(t *testing.T, g *graph.Graph, o Options) Result {
	t.Helper()
	res, err := Derandomized(context.Background(), g, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRandomizedMISOnSuite(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":      graph.Gnp(300, 0.03, 1),
		"cycle":    graph.Cycle(101),
		"complete": graph.Complete(30),
		"star":     graph.Star(40),
		"grid":     graph.Grid(15, 15),
		"mixed":    graph.Mixed(200, 2),
	}
	for name, g := range graphs {
		res := Randomized(g, 7, 200)
		if !IsIndependent(g, res.State) {
			t.Fatalf("%s: not independent", name)
		}
		if !IsMaximal(g, res.State) {
			t.Fatalf("%s: not maximal", name)
		}
	}
}

func TestRandomizedRoundsLogarithmic(t *testing.T) {
	g := graph.Gnp(2000, 0.005, 3)
	res := Randomized(g, 1, 500)
	if res.Rounds > 40 {
		t.Fatalf("Luby took %d rounds on n=2000", res.Rounds)
	}
}

func TestDerandomizedMISCorrect(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":   graph.Gnp(150, 0.05, 4),
		"cycle": graph.Cycle(60),
		"mixed": graph.Mixed(120, 5),
		"k20":   graph.Complete(20),
	}
	for name, g := range graphs {
		res := mustDerand(t, g, Options{SeedBits: 6})
		if !IsIndependent(g, res.State) {
			t.Fatalf("%s: not independent", name)
		}
		if !IsMaximal(g, res.State) {
			t.Fatalf("%s: not maximal", name)
		}
		for _, sel := range res.SeedReports {
			if !sel.Guarantee() {
				t.Fatalf("%s: certificate violated", name)
			}
		}
	}
}

func TestDerandomizedDeterministic(t *testing.T) {
	g := graph.Gnp(100, 0.08, 9)
	a := mustDerand(t, g, Options{SeedBits: 6})
	b := mustDerand(t, g, Options{SeedBits: 6})
	for v := range a.State {
		if a.State[v] != b.State[v] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestCompleteGraphPicksExactlyOne(t *testing.T) {
	g := graph.Complete(25)
	res := mustDerand(t, g, Options{SeedBits: 5})
	if n := len(res.InSetNodes()); n != 1 {
		t.Fatalf("MIS of K25 has %d nodes", n)
	}
}

func TestEmptyGraphAllIn(t *testing.T) {
	g := graph.Empty(40)
	res := mustDerand(t, g, Options{SeedBits: 4})
	if n := len(res.InSetNodes()); n != 40 {
		t.Fatalf("edgeless MIS has %d of 40", n)
	}
}

func TestSSPImpliesWSPUnderDeferral(t *testing.T) {
	// The Definition 5 example: mark an arbitrary subset of OUT nodes as
	// Skipped (deferred); the set must stay independent and all remaining
	// OUT nodes must still be dominated — SSP ⇒ WSP under any deferral.
	g := graph.Gnp(120, 0.06, 11)
	base := Randomized(g, 3, 200)
	f := func(mask uint64) bool {
		state := append([]NodeState(nil), base.State...)
		for v := range state {
			if state[v] == Out && mask>>(uint(v)%64)&1 == 1 {
				state[v] = Skipped
			}
		}
		return IsIndependent(g, state) && IsMaximal(g, state)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLubyRoundJoinersIndependent(t *testing.T) {
	// One round's joiners must form an independent set, and lubyRound must
	// not mutate state.
	g := graph.Gnp(80, 0.1, 13)
	state := make([]NodeState, g.N())
	bitsFor := func(v int32) *rng.Bits {
		return rng.FreshBits(rng.At2(21, uint64(v), 0), priorityBits)
	}
	join := lubyRound(nil, g, state, bitsFor)
	for v := int32(0); v < int32(g.N()); v++ {
		if state[v] != Undecided {
			t.Fatal("lubyRound mutated state")
		}
		if !join[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if join[u] {
				t.Fatalf("adjacent joiners %d,%d", v, u)
			}
		}
	}
}

func TestMISSizesComparable(t *testing.T) {
	// Derandomized MIS size should be within a factor 2 of randomized.
	g := graph.Gnp(200, 0.04, 17)
	rr := Randomized(g, 5, 200)
	dd := mustDerand(t, g, Options{SeedBits: 6})
	r := len(rr.InSetNodes())
	d := len(dd.InSetNodes())
	if d*2 < r || r*2 < d {
		t.Fatalf("sizes diverge: randomized=%d derandomized=%d", r, d)
	}
}

// TestTableScoringMatchesNaive is the differential test of the scoring
// engine: per-round seed, score and certificate, and
// the final MIS must be bit-identical to the naive per-seed oracle —
// across graphs, both selection strategies, and worker counts 1, 4 and
// GOMAXPROCS (the default bound).
func TestTableScoringMatchesNaive(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":   graph.Gnp(150, 0.05, 4),
		"cycle": graph.Cycle(60),
		"mixed": graph.Mixed(120, 5),
		"k20":   graph.Complete(20),
		"star":  graph.Star(40),
	}
	for name, g := range graphs {
		for _, bitwise := range []bool{false, true} {
			for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS default
				o := Options{SeedBits: 6, Bitwise: bitwise}
				oNaive := o
				oNaive.NaiveScoring = true
				o.Par = par.NewRunner(workers)
				oNaive.Par = par.NewRunner(workers)
				tab := mustDerand(t, g, o)
				naive := mustDerand(t, g, oNaive)
				if len(tab.SeedReports) != len(naive.SeedReports) {
					t.Fatalf("%s/bitwise=%v/w=%d: round counts diverge: %d vs %d",
						name, bitwise, workers, len(tab.SeedReports), len(naive.SeedReports))
				}
				for i := range tab.SeedReports {
					a, b := tab.SeedReports[i], naive.SeedReports[i]
					if a.Seed != b.Seed || a.Score != b.Score ||
						a.SumScores != b.SumScores || a.MeanUpper() != b.MeanUpper() {
						t.Fatalf("%s/bitwise=%v/w=%d round %d diverges:\ntable %+v\nnaive %+v",
							name, bitwise, workers, i, a, b)
					}
				}
				for v := range tab.State {
					if tab.State[v] != naive.State[v] {
						t.Fatalf("%s/bitwise=%v/w=%d: states diverge at node %d",
							name, bitwise, workers, v)
					}
				}
			}
		}
	}
}

// TestTableEvalReduction pins the bitwise eval saving on the live solver:
// the naive bitwise oracle spends 2^(d+1)−2 scorer calls per round, the
// engine path 2^d evaluations.
func TestTableEvalReduction(t *testing.T) {
	g := graph.Gnp(100, 0.06, 2)
	const d = 5
	tab := mustDerand(t, g, Options{SeedBits: d, Bitwise: true})
	naive := mustDerand(t, g, Options{SeedBits: d, Bitwise: true, NaiveScoring: true})
	for i := range tab.SeedReports {
		if got, want := tab.SeedReports[i].Evals, 1<<d; got != want {
			t.Fatalf("round %d: table evals %d, want %d", i, got, want)
		}
		if got, want := naive.SeedReports[i].Evals, 1<<(d+1)-2; got != want {
			t.Fatalf("round %d: naive bitwise evals %d, want %d", i, got, want)
		}
	}
}

func TestDerandomizedBitwiseCorrect(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"gnp": graph.Gnp(120, 0.05, 6),
		"k15": graph.Complete(15),
	} {
		res := mustDerand(t, g, Options{SeedBits: 6, Bitwise: true})
		if !IsIndependent(g, res.State) || !IsMaximal(g, res.State) {
			t.Fatalf("%s: bitwise result invalid", name)
		}
		for _, sel := range res.SeedReports {
			if !sel.Guarantee() {
				t.Fatalf("%s: bitwise certificate violated", name)
			}
		}
	}
}

func BenchmarkRandomizedMIS(b *testing.B) {
	g := graph.Gnp(1000, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Randomized(g, uint64(i), 200)
	}
}

func BenchmarkDerandomizedMIS(b *testing.B) {
	g := graph.Gnp(200, 0.04, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Derandomized(context.Background(), g, Options{SeedBits: 5})
	}
}

// BenchmarkSeedSelectionMIS ablates the scoring engine on a full
// derandomized solve at n=300 (every Luby round goes through seed
// selection): the engine path (lazy chunk views of the live
// nodes + pooled scratch + cached winning join) against the naive per-seed
// oracle, for both selection strategies. Results are identical across the
// axis; only cost differs.
func BenchmarkSeedSelectionMIS(b *testing.B) {
	g := graph.Gnp(300, 0.04, 1)
	for _, cfg := range []struct {
		name           string
		naive, bitwise bool
	}{
		{"naive/flat", true, false},
		{"naive/bitwise", true, true},
		{"table/flat", false, false},
		{"table/bitwise", false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = Derandomized(context.Background(), g, Options{SeedBits: 8, Bitwise: cfg.bitwise, NaiveScoring: cfg.naive})
			}
		})
	}
}
