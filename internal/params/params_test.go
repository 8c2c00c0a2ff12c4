package params

import (
	"math"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCliqueSparsityZero(t *testing.T) {
	// In K_n every neighborhood is a clique: ζ_v = 0.
	in := d1lc.TrivialPalettes(graph.Complete(8))
	p := ComputePar(nil, in)
	for v := 0; v < 8; v++ {
		if p.Sparsity[v] != 0 || p.NonEdges[v] != 0 {
			t.Fatalf("node %d: ζ=%f nonEdges=%d", v, p.Sparsity[v], p.NonEdges[v])
		}
		if p.Slack[v] != 1 {
			t.Fatalf("slack %d", p.Slack[v])
		}
	}
}

func TestStarSparsityMaximal(t *testing.T) {
	// Center of K_{1,d}: all C(d,2) pairs are non-edges → ζ = (d−1)/2.
	g := graph.Star(6) // center degree 5
	in := d1lc.TrivialPalettes(g)
	p := ComputePar(nil, in)
	if !almostEq(p.Sparsity[0], 2.0) { // (5-1)/2
		t.Fatalf("center sparsity %f want 2", p.Sparsity[0])
	}
	// Leaves have degree 1: zero pairs, zero sparsity.
	if !almostEq(p.Sparsity[1], 0) {
		t.Fatalf("leaf sparsity %f", p.Sparsity[1])
	}
}

func TestUnevennessCaterpillar(t *testing.T) {
	// Leaf attached to spine node of degree D: η_leaf = (D−1)/(D+1).
	g := graph.Star(5) // leaves degree 1, center degree 4
	in := d1lc.TrivialPalettes(g)
	p := ComputePar(nil, in)
	want := float64(4-1) / float64(4+1)
	if !almostEq(p.Unevenness[1], want) {
		t.Fatalf("leaf unevenness %f want %f", p.Unevenness[1], want)
	}
	if !almostEq(p.Unevenness[0], 0) {
		t.Fatalf("center unevenness %f want 0", p.Unevenness[0])
	}
}

func TestDisparity(t *testing.T) {
	cases := []struct {
		u, v []int32
		want float64
	}{
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 0},
		{[]int32{1, 2, 3}, []int32{4, 5}, 1},
		{[]int32{1, 2, 3, 4}, []int32{3, 4}, 0.5},
		{[]int32{}, []int32{1}, 0},
		{[]int32{1}, []int32{}, 1},
	}
	for _, tc := range cases {
		if got := Disparity(tc.u, tc.v); !almostEq(got, tc.want) {
			t.Fatalf("Disparity(%v,%v)=%f want %f", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestDiscrepancyIdenticalPalettes(t *testing.T) {
	// Same palette everywhere ⇒ all disparities 0 ⇒ discrepancy 0.
	in := d1lc.DeltaPlus1Palettes(graph.Complete(5))
	p := ComputePar(nil, in)
	for v := 0; v < 5; v++ {
		if !almostEq(p.Discrepancy[v], 0) {
			t.Fatalf("discrepancy %f", p.Discrepancy[v])
		}
	}
}

func TestDiscrepancyDisjointPalettes(t *testing.T) {
	// Disjoint palettes ⇒ each disparity 1 ⇒ discrepancy = degree.
	g := graph.Cycle(6)
	in := d1lc.ShiftedPalettes(g, 6, 100) // widely separated blocks
	p := ComputePar(nil, in)
	for v := int32(0); v < 6; v++ {
		if !almostEq(p.Discrepancy[v], 2) {
			t.Fatalf("node %d discrepancy %f want 2", v, p.Discrepancy[v])
		}
	}
}

func TestSlackabilityComposition(t *testing.T) {
	g := graph.Gnp(50, 0.15, 3)
	in := d1lc.RandomPalettes(g, 1, 60, 4)
	p := ComputePar(nil, in)
	for v := 0; v < 50; v++ {
		if !almostEq(p.Slackab[v], p.Discrepancy[v]+p.Sparsity[v]) {
			t.Fatal("σ̄ decomposition wrong")
		}
		if !almostEq(p.StrongSlack[v], p.Unevenness[v]+p.Sparsity[v]) {
			t.Fatal("σ decomposition wrong")
		}
		if p.Sparsity[v] < 0 || p.Unevenness[v] < 0 || p.Discrepancy[v] < 0 {
			t.Fatal("negative parameter")
		}
	}
}

func TestEpsClassifiers(t *testing.T) {
	g := graph.Star(10)
	in := d1lc.TrivialPalettes(g)
	p := ComputePar(nil, in)
	// Center: ζ = (9−1)/2 = 4 = (4/9)·d ⇒ ε-sparse for ε ≤ 4/9.
	if !p.IsEpsSparse(0, 0.4, 9) {
		t.Fatal("center should be 0.4-sparse")
	}
	if p.IsEpsSparse(0, 0.5, 9) {
		t.Fatal("center should not be 0.5-sparse")
	}
	// Leaf: η = 8/10 = 0.8·d(leaf) ⇒ ε-uneven for ε ≤ 0.8.
	if !p.IsEpsUneven(1, 0.7, 1) {
		t.Fatal("leaf should be 0.7-uneven")
	}
	if p.IsEpsUneven(1, 0.9, 1) {
		t.Fatal("leaf should not be 0.9-uneven")
	}
}

func TestSparsityMatchesDirectCount(t *testing.T) {
	g := graph.Gnp(40, 0.25, 9)
	in := d1lc.TrivialPalettes(g)
	p := ComputePar(nil, in)
	for v := int32(0); v < 40; v++ {
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		m := graph.CountEdgesAmong(g, g.Neighbors(v))
		want := (float64(d)*float64(d-1)/2 - float64(m)) / float64(d)
		if !almostEq(p.Sparsity[v], want) {
			t.Fatalf("node %d sparsity %f want %f", v, p.Sparsity[v], want)
		}
	}
}

func BenchmarkCompute(b *testing.B) {
	g := graph.Gnp(500, 0.05, 1)
	in := d1lc.RandomPalettes(g, 2, 200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputePar(nil, in)
	}
}
