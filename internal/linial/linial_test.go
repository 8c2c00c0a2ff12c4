package linial

import (
	"testing"
	"testing/quick"

	"parcolor/internal/graph"
)

// Verify checks that colors is a proper coloring of g.
func Verify(g *graph.Graph, colors []int32) bool {
	for v := int32(0); v < int32(g.N()); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v && colors[u] == colors[v] {
				return false
			}
		}
	}
	return true
}

func TestColorProperOnSuite(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle":    graph.Cycle(101),
		"path":     graph.Path(64),
		"complete": graph.Complete(20),
		"gnp":      graph.Gnp(400, 0.02, 1),
		"regular":  graph.RandomRegular(300, 6, 2),
		"star":     graph.Star(50),
		"grid":     graph.Grid(12, 12),
	}
	for name, g := range graphs {
		res := ColorPar(nil, g)
		if !Verify(g, res.Colors) {
			t.Fatalf("%s: improper coloring", name)
		}
		for _, c := range res.Colors {
			if c < 0 || int(c) >= res.NumColors {
				t.Fatalf("%s: color %d outside [0,%d)", name, c, res.NumColors)
			}
		}
	}
}

func TestColorCountNearDeltaSquared(t *testing.T) {
	g := graph.RandomRegular(2000, 4, 3)
	res := ColorPar(nil, g)
	if !Verify(g, res.Colors) {
		t.Fatal("improper")
	}
	// Δ=4: expect O(Δ²·polylog) — generously, under 40·Δ².
	if res.NumColors > 40*4*4 {
		t.Fatalf("color count %d too large for Δ=4", res.NumColors)
	}
	if res.Rounds == 0 {
		t.Fatal("no reduction happened on a 2000-node instance")
	}
}

func TestColorRoundsLogStar(t *testing.T) {
	// Rounds should stay tiny even as n grows 100×.
	small := ColorPar(nil, graph.Cycle(100)).Rounds
	big := ColorPar(nil, graph.Cycle(10000)).Rounds
	if big > small+3 {
		t.Fatalf("rounds grew from %d to %d: not log*-like", small, big)
	}
	if big > 8 {
		t.Fatalf("rounds=%d too large", big)
	}
}

func TestColorEmptyAndSingleton(t *testing.T) {
	res := ColorPar(nil, graph.Empty(0))
	if res.NumColors != 0 {
		t.Fatal("empty graph")
	}
	res = ColorPar(nil, graph.Empty(1))
	if len(res.Colors) != 1 {
		t.Fatal("singleton")
	}
	res = ColorPar(nil, graph.Empty(50))
	if !Verify(graph.Empty(50), res.Colors) {
		t.Fatal("edgeless verify")
	}
}

func TestColorDeterministic(t *testing.T) {
	g := graph.Gnp(200, 0.05, 7)
	a := ColorPar(nil, g)
	b := ColorPar(nil, g)
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestColorOnPowerGraph(t *testing.T) {
	// The Lemma 10 use case: color G^4 so nodes within distance 4 differ.
	g := graph.Cycle(60)
	p4, err := graph.PowerGraphPar(nil, g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := ColorPar(nil, p4)
	if !Verify(p4, res.Colors) {
		t.Fatal("improper on power graph")
	}
	// Walk the cycle: any two nodes ≤ 4 apart must differ.
	for v := 0; v < 60; v++ {
		for d := 1; d <= 4; d++ {
			u := (v + d) % 60
			if res.Colors[v] == res.Colors[u] {
				t.Fatalf("nodes %d,%d at distance %d share chunk color", v, u, d)
			}
		}
	}
}

func TestNormalizeDense(t *testing.T) {
	dense, count := Normalize([]int32{7, 3, 7, 9, 3})
	if count != 3 {
		t.Fatalf("count=%d", count)
	}
	want := []int32{0, 1, 0, 2, 1}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense=%v", dense)
		}
	}
}

func TestNormalizePreservesDistinctness(t *testing.T) {
	f := func(raw []uint8) bool {
		colors := make([]int32, len(raw))
		for i, r := range raw {
			colors[i] = int32(r % 16)
		}
		dense, count := Normalize(colors)
		for i := range colors {
			for j := range colors {
				if (colors[i] == colors[j]) != (dense[i] == dense[j]) {
					return false
				}
			}
			if int(dense[i]) >= count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimeHelpers(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 3, 4: 5, 14: 17, 20: 23, 100: 101}
	for in, want := range cases {
		if got := nextPrime(in); got != want {
			t.Fatalf("nextPrime(%d)=%d want %d", in, got, want)
		}
	}
	if isPrime(1) || isPrime(9) || !isPrime(97) {
		t.Fatal("isPrime wrong")
	}
}

func BenchmarkColor(b *testing.B) {
	g := graph.RandomRegular(3000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ColorPar(nil, g)
	}
}
