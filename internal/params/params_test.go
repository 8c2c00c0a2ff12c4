package params

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCliqueSparsityZero(t *testing.T) {
	// In K_n every neighborhood is a clique: ζ_v = 0.
	in := d1lc.TrivialPalettes(graph.Complete(8))
	p := ComputePar(nil, in)
	for v := 0; v < 8; v++ {
		if p.Sparsity[v] != 0 {
			t.Fatalf("node %d: ζ=%f", v, p.Sparsity[v])
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
	for _, bc := range []struct {
		name string
		in   *d1lc.Instance
	}{
		{"gnp500", d1lc.RandomPalettes(graph.Gnp(500, 0.05, 1), 2, 200, 2)},
		// Chung–Lu numbers nodes by weight, hubs first, so equal node
		// chunks would leave most of the common-neighbour work to the
		// first worker.
		{"chunglu50k", d1lc.TrivialPalettes(graph.ChungLu(50_000, 2.5, 8, 1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				ComputePar(nil, bc.in)
			}
		})
	}
}

// referencePar is ComputePar as one serial per-arc pass: every arc v→u
// merges N(v) with N(u), so each edge's common neighbours are counted on
// both of its arcs, and m(N(v)) is half the sum of v's counts. The
// differential tests hold the two-pass ComputePar to it, field by field.
func referencePar(in *d1lc.Instance) *Params {
	g := in.G
	n := g.N()
	p := &Params{
		Sparsity:    make([]float64, n),
		Discrepancy: make([]float64, n),
		Unevenness:  make([]float64, n),
		Slackab:     make([]float64, n),
		CommonNbrs:  make([]int32, 2*g.M()),
	}
	for v := int32(0); v < int32(n); v++ {
		d := g.Degree(v)
		ns := g.Neighbors(v)
		if d > 0 {
			lo := g.ArcOffset(v)
			var twiceM int64
			for k, u := range ns {
				c := intersectionSize(ns, g.Neighbors(u))
				p.CommonNbrs[lo+k] = int32(c)
				twiceM += int64(c)
			}
			pairs := int64(d) * int64(d-1) / 2
			p.Sparsity[v] = float64(pairs-twiceM/2) / float64(d)
		}
		var disc, unev float64
		for _, u := range ns {
			disc += Disparity(in.Palettes[u], in.Palettes[v])
			du := g.Degree(u)
			if du > d {
				unev += float64(du-d) / float64(du+1)
			}
		}
		p.Discrepancy[v] = disc
		p.Unevenness[v] = unev
		p.Slackab[v] = disc + p.Sparsity[v]
	}
	return p
}

// assertSameParams fails unless got equals want field by field, every
// float compared with ==.
func assertSameParams(t *testing.T, label string, got, want *Params) {
	t.Helper()
	floats := []struct {
		name      string
		got, want []float64
	}{
		{"Sparsity", got.Sparsity, want.Sparsity},
		{"Discrepancy", got.Discrepancy, want.Discrepancy},
		{"Unevenness", got.Unevenness, want.Unevenness},
		{"Slackab", got.Slackab, want.Slackab},
	}
	for _, f := range floats {
		if i := firstDiff(f.got, f.want); i >= 0 {
			t.Fatalf("%s: %s differs at node %d of %d", label, f.name, i, len(f.want))
		}
	}
	if i := firstDiff(got.CommonNbrs, want.CommonNbrs); i >= 0 {
		t.Fatalf("%s: CommonNbrs differs at arc %d of %d", label, i, len(want.CommonNbrs))
	}
}

// firstDiff returns the first index where a and b differ (a length
// mismatch differs at the shorter length), or -1 when they are equal.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestComputeParMatchesReference runs the two-pass ComputePar against the
// per-arc reference on graphs whose ids are in weight order (Chung–Lu,
// preferential attachment), hubs, cliques (every owner decided by the id
// tie-break), isolated nodes and the empty and one-node graphs, under
// three palette families and four runners. At two and four workers the
// common-neighbour writes cross range boundaries, which -race checks.
func TestComputeParMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu", graph.ChungLu(4000, 2.5, 8, 1)},
		{"powerlaw", graph.PowerLaw(2000, 4, 2)},
		{"star", graph.Star(40)},
		{"complete", graph.Complete(24)},
		{"isolated", graph.DisjointUnion(graph.Empty(5), graph.Gnp(80, 0.15, 3), graph.Empty(4))},
		{"n0", graph.Empty(0)},
		{"n1", graph.Empty(1)},
	}
	runners := []struct {
		name string
		r    *par.Runner
	}{
		{"nil", nil},
		{"w1", par.NewRunner(1)},
		{"w2", par.NewRunner(2)},
		{"w4", par.NewRunner(4)},
	}
	for _, gc := range graphs {
		palettes := []struct {
			name string
			in   *d1lc.Instance
		}{
			{"trivial", d1lc.TrivialPalettes(gc.g)},
			{"random", d1lc.RandomPalettes(gc.g, 2, 2*(gc.g.MaxDegree()+1), 7)},
			{"shifted", d1lc.ShiftedPalettes(gc.g, 3, 10)},
		}
		for _, pc := range palettes {
			want := referencePar(pc.in)
			for _, rc := range runners {
				label := gc.name + "/" + pc.name + "/" + rc.name
				assertSameParams(t, label, ComputePar(rc.r, pc.in), want)
			}
		}
	}
}

// TestComputeParCancelledSkipsWork pins the per-range cancellation poll:
// a runner cancelled before the call computes nothing, so every count
// and parameter keeps its zero value.
func TestComputeParCancelledSkipsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := d1lc.TrivialPalettes(graph.Complete(12))
	p := ComputePar(par.NewRunner(2).WithContext(ctx), in)
	if slices.ContainsFunc(p.CommonNbrs, func(c int32) bool { return c != 0 }) ||
		slices.ContainsFunc(p.Unevenness, func(x float64) bool { return x != 0 }) {
		t.Fatal("a cancelled runner still computed parameters")
	}
}

// FuzzComputePar holds ComputePar to the per-arc reference on arbitrary
// small instances. data[0] mod 49 is the node count n ≤ 48, and the
// remaining bytes are edges, as pairs mod n: self-loops and duplicate
// edges are allowed, and the builder drops them. Palettes are random,
// with extra mod 4 extra colors, drawn from seed. At one worker and at
// four every field must equal the reference's.
func FuzzComputePar(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint64(1))                                                              // n = 0
	f.Add([]byte{1, 0, 0}, uint8(1), uint64(2))                                                       // n = 1, a self-loop
	f.Add([]byte{6, 0, 1, 1, 0, 0, 1, 2, 3, 3, 2, 4, 4, 5, 0}, uint8(2), uint64(3))                   // duplicate edges
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}, uint8(3), uint64(4)) // K5: equal degrees
	f.Fuzz(func(t *testing.T, data []byte, extra uint8, seed uint64) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%49, data[1:]
		}
		b := graph.NewBuilder(n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		g := b.Build()
		in := d1lc.RandomPalettes(g, int(extra%4), 2*(g.MaxDegree()+1), seed)
		want := referencePar(in)
		for _, workers := range []int{1, 4} {
			assertSameParams(t, fmt.Sprintf("workers=%d", workers), ComputePar(par.NewRunner(workers), in), want)
		}
	})
}
