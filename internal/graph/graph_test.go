package graph

import (
	"testing"
	"testing/quick"

	"parcolor/internal/rng"
)

func TestBuilderDeduplicatesAndSorts(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 0)
	b.AddEdge(0, 3)
	b.AddEdge(2, 2) // self-loop dropped
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M=%d want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(0, 3) || g.HasEdge(0, 1) {
		t.Fatal("edge membership wrong")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Fatalf("center degree %d", g.Degree(0))
	}
	for v := int32(1); v < 5; v++ {
		if g.Degree(v) != 1 || g.Neighbors(v)[0] != 0 {
			t.Fatalf("leaf %d wrong adjacency", v)
		}
	}
	if g.MaxDegree() != 4 {
		t.Fatal("MaxDegree wrong")
	}
}

func TestCompleteAndCycleCounts(t *testing.T) {
	if g := Complete(7); g.M() != 21 || g.MaxDegree() != 6 {
		t.Fatalf("K7 m=%d Δ=%d", g.M(), g.MaxDegree())
	}
	if g := Cycle(9); g.M() != 9 || g.MaxDegree() != 2 {
		t.Fatalf("C9 m=%d Δ=%d", g.M(), g.MaxDegree())
	}
	if g := Path(5); g.M() != 4 {
		t.Fatalf("P5 m=%d", g.M())
	}
	if g := Grid(3, 4); g.M() != 3*3+2*4 {
		t.Fatalf("grid m=%d", g.M())
	}
}

func TestGeneratorsValidate(t *testing.T) {
	gens := map[string]*Graph{
		"gnp":         Gnp(200, 0.05, 1),
		"gnp-dense":   Gnp(60, 0.5, 2),
		"regular":     RandomRegular(100, 6, 3),
		"powerlaw":    PowerLaw(150, 3, 4),
		"cliques":     CliquesPlusMatching(4, 10, 5),
		"noisy":       NoisyClique(20, 10, 0.1, 6),
		"caterpillar": Caterpillar(10, 3),
		"mixed":       Mixed(120, 8),
	}
	for name, g := range gens {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
}

func TestGnpDeterministicAndDensityReasonable(t *testing.T) {
	a := Gnp(300, 0.1, 42)
	b := Gnp(300, 0.1, 42)
	if a.M() != b.M() {
		t.Fatal("same seed different edge count")
	}
	expected := 0.1 * 300 * 299 / 2
	if float64(a.M()) < expected*0.7 || float64(a.M()) > expected*1.3 {
		t.Fatalf("Gnp density off: m=%d expected≈%.0f", a.M(), expected)
	}
	if Gnp(300, 0.1, 43).M() == a.M() && Gnp(300, 0.1, 44).M() == a.M() {
		t.Fatal("suspiciously seed-independent")
	}
}

func TestGnpEdgeCases(t *testing.T) {
	if g := Gnp(10, 0, 1); g.M() != 0 {
		t.Fatal("p=0 should be empty")
	}
	if g := Gnp(10, 1, 1); g.M() != 45 {
		t.Fatal("p=1 should be complete")
	}
	if g := Gnp(1, 0.5, 1); g.N() != 1 || g.M() != 0 {
		t.Fatal("n=1 wrong")
	}
}

// pairFromIndex maps a linear index over {(u,v): 0<=u<v<n} in lexicographic
// order back to the pair. It scans rows from zero, so it is O(n) per call:
// the reference the streaming row cursor in GnpEdges is pinned against.
func pairFromIndex(pos int64, n int) (int32, int32) {
	// Row u occupies n-1-u entries. Find u by accumulating.
	u := int64(0)
	rowLen := int64(n - 1)
	for pos >= rowLen {
		pos -= rowLen
		u++
		rowLen--
	}
	return int32(u), int32(u + 1 + pos)
}

// TestGnpEdgesMatchesPairFromIndex pins GnpEdges' streaming row cursor
// against the O(n)-per-call pairFromIndex reference: replaying the same
// geometric skip sequence through both mappings must yield the identical
// edge stream. This is the differential that let the cursor replace the
// per-edge reference lookup (which made generation O(n·m) at n=10^6).
func TestGnpEdgesMatchesPairFromIndex(t *testing.T) {
	for _, n := range []int{2, 3, 9, 57, 400} {
		for _, p := range []float64{0.01, 0.2, 0.7, 0.97} {
			const seed = 7
			s := rng.New(rng.Hash2(seed, 0xE5D0))
			total := int64(n) * int64(n-1) / 2
			pos := int64(-1)
			var want [][2]int32
			for {
				u01 := s.Float64()
				if u01 >= 1 {
					u01 = 0.9999999999999999
				}
				pos += 1 + int64(logRatio(u01, p))
				if pos >= total {
					break
				}
				u, v := pairFromIndex(pos, n)
				want = append(want, [2]int32{u, v})
			}
			var got [][2]int32
			GnpEdges(n, p, seed, func(u, v int32) { got = append(got, [2]int32{u, v}) })
			if len(got) != len(want) {
				t.Fatalf("n=%d p=%g: %d edges streamed, reference has %d", n, p, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%g: edge %d is %v, reference %v", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestPairFromIndexBijective(t *testing.T) {
	n := 9
	seen := map[[2]int32]bool{}
	total := int64(n * (n - 1) / 2)
	for pos := int64(0); pos < total; pos++ {
		u, v := pairFromIndex(pos, n)
		if u >= v || v >= int32(n) {
			t.Fatalf("bad pair (%d,%d)", u, v)
		}
		key := [2]int32{u, v}
		if seen[key] {
			t.Fatalf("duplicate pair (%d,%d)", u, v)
		}
		seen[key] = true
	}
}

func TestRandomRegularDegreeBound(t *testing.T) {
	d := 8
	g := RandomRegular(200, d, 9)
	if g.MaxDegree() > d {
		t.Fatalf("max degree %d exceeds %d", g.MaxDegree(), d)
	}
	// Average degree should be close to d (collisions are rare).
	avg := float64(2*g.M()) / float64(g.N())
	if avg < float64(d)-1.5 {
		t.Fatalf("average degree %.2f too low for d=%d", avg, d)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	sub, orig := InducedSubgraph(g, []int32{5, 1, 3})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3 wrong: n=%d m=%d", sub.N(), sub.M())
	}
	want := []int32{1, 3, 5}
	for i, v := range orig {
		if v != want[i] {
			t.Fatalf("origOf=%v", orig)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphProperty(t *testing.T) {
	g := Gnp(60, 0.15, 5)
	f := func(mask uint64) bool {
		var keep []int32
		for v := int32(0); v < 60; v++ {
			if mask>>(uint(v)%64)&1 == 1 || v%7 == int32(mask%7) {
				keep = append(keep, v)
			}
		}
		sub, orig := InducedSubgraph(g, keep)
		if sub.N() != len(orig) {
			return false
		}
		// every sub edge must exist in g; every g edge within keep must be in sub
		for u := int32(0); u < int32(sub.N()); u++ {
			for _, v := range sub.Neighbors(u) {
				if !g.HasEdge(orig[u], orig[v]) {
					return false
				}
			}
		}
		for i, ou := range orig {
			for j := i + 1; j < len(orig); j++ {
				if g.HasEdge(ou, orig[j]) != sub.HasEdge(int32(i), int32(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLineGraphOfTriangle(t *testing.T) {
	lg, edges := LineGraph(Complete(3))
	if lg.N() != 3 || lg.M() != 3 {
		t.Fatalf("L(K3) n=%d m=%d", lg.N(), lg.M())
	}
	if len(edges) != 3 {
		t.Fatal("edge list wrong")
	}
}

func TestLineGraphOfStar(t *testing.T) {
	// L(K_{1,4}) = K4.
	lg, _ := LineGraph(Star(5))
	if lg.N() != 4 || lg.M() != 6 {
		t.Fatalf("L(star) n=%d m=%d", lg.N(), lg.M())
	}
}

func TestLineGraphDegreeIdentity(t *testing.T) {
	g := Gnp(40, 0.2, 11)
	lg, edges := LineGraph(g)
	for i, e := range edges {
		want := g.Degree(e[0]) + g.Degree(e[1]) - 2
		if lg.Degree(int32(i)) != want {
			t.Fatalf("edge %v line-degree %d want %d", e, lg.Degree(int32(i)), want)
		}
	}
}

func TestPowerGraph(t *testing.T) {
	g := Path(6)
	p2, err := PowerGraphPar(nil, g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// In P6^2, node 2 is adjacent to 0,1,3,4.
	if p2.Degree(2) != 4 {
		t.Fatalf("P6^2 degree(2)=%d", p2.Degree(2))
	}
	if !p2.HasEdge(0, 2) || p2.HasEdge(0, 3) {
		t.Fatal("power edges wrong")
	}
	pn, err := PowerGraphPar(nil, g, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pn.M() != 15 {
		t.Fatalf("P6^10 should be complete, m=%d", pn.M())
	}
	if _, err := PowerGraphPar(nil, Complete(10), 2, 3); err == nil {
		t.Fatal("expected ball-size error")
	}
}

func TestComponents(t *testing.T) {
	g := DisjointUnion() // empty
	if g.N() != 0 {
		t.Fatal("empty union")
	}
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	g = b.Build()
	comp, sizes := Components(g)
	if len(sizes) != 4 { // {0,1,2}, {3}, {4,5}, {6}
		t.Fatalf("components=%d", len(sizes))
	}
	if comp[0] != comp[2] || comp[4] != comp[5] || comp[0] == comp[4] || comp[3] == comp[6] {
		t.Fatalf("labels wrong: %v", comp)
	}
	total := int32(0)
	for _, s := range sizes {
		total += s
	}
	if total != 7 {
		t.Fatal("sizes don't sum to n")
	}
}

func TestCountEdgesAmong(t *testing.T) {
	g := Complete(5)
	if c := CountEdgesAmong(g, []int32{0, 1, 2}); c != 3 {
		t.Fatalf("triangle count %d", c)
	}
	if c := CountEdgesAmong(g, []int32{2}); c != 0 {
		t.Fatalf("singleton count %d", c)
	}
	if c := CountEdgesAmong(Cycle(6), []int32{0, 2, 4}); c != 0 {
		t.Fatalf("independent set count %d", c)
	}
}

func TestDisjointUnionBridges(t *testing.T) {
	g := DisjointUnion(Complete(3), Complete(3))
	if g.N() != 6 {
		t.Fatal("union size")
	}
	if g.M() != 7 { // 3+3 clique edges + 1 bridge
		t.Fatalf("m=%d want 7", g.M())
	}
	_, sizes := Components(g)
	if len(sizes) != 1 {
		t.Fatal("bridge should connect blocks")
	}
}

func TestNamedGenerators(t *testing.T) {
	for _, name := range []string{"gnp-sparse", "gnp-dense", "regular", "powerlaw", "cliques", "mixed", "caterpillar", "cycle", "complete"} {
		g, err := Named(name, 64, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Named("nope", 10, 1); err == nil {
		t.Fatal("expected error for unknown generator")
	}
}

// TestNamedArcsBoundsBuiltGraphs pins NamedArcs to what Named builds: the
// estimate never undercounts the arcs by more than rounding and random
// variation allow, so a bound checked on it cannot be evaded, and at
// n = 3000 it overcounts by at most 10%.
func TestNamedArcsBoundsBuiltGraphs(t *testing.T) {
	for _, name := range []string{"gnp-sparse", "gnp-dense", "regular", "powerlaw", "chunglu", "cliques", "mixed", "caterpillar", "cycle", "complete"} {
		for _, n := range []int{1, 2, 10, 200, 3000} {
			g, err := Named(name, n, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			est, err := NamedArcs(name, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			arcs := float64(2 * g.M())
			if arcs > 1.1*est+16 {
				t.Errorf("%s n=%d: %v arcs built, estimate %v", name, n, arcs, est)
			}
			if n == 3000 && est > 1.1*arcs {
				t.Errorf("%s n=%d: estimate %v overcounts %v arcs", name, n, est, arcs)
			}
		}
	}
	if _, err := NamedArcs("nope", 10); err == nil {
		t.Fatal("expected error for unknown generator")
	}
}

// FromAdjacency constructs a graph directly from adjacency lists. Lists
// may be unsorted and contain duplicates; symmetry is completed
// automatically.
func FromAdjacency(lists [][]int32) *Graph {
	b := NewBuilder(len(lists))
	for u, ns := range lists {
		for _, v := range ns {
			b.AddEdge(int32(u), v)
		}
	}
	return b.Build()
}

func TestFromAdjacencyCompletesSymmetry(t *testing.T) {
	g := FromAdjacency([][]int32{{1, 2}, {}, {}})
	if g.M() != 2 || !g.HasEdge(1, 0) {
		t.Fatal("symmetry not completed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	edges := Gnp(2000, 0.01, 1).Edges(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(2000)
		for _, e := range edges {
			bld.AddEdge(e[0], e[1])
		}
		_ = bld.Build()
	}
}

func BenchmarkPowerGraph(b *testing.B) {
	g := RandomRegular(500, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerGraphPar(nil, g, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
}
