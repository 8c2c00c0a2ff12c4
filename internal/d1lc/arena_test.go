package d1lc

import (
	"slices"
	"testing"

	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// ReducePar is the allocating reference for ReduceArena.ReducePar: the
// same residual instance, with one fresh palette per node.
func ReducePar(r *par.Runner, in *Instance, col *Coloring, nodes []int32) (res *Instance, origOf []int32) {
	sub, origOf := graph.InducedSubgraphPar(r, in.G, nodes)
	pal := make([][]int32, sub.N())
	r.ForChunked(len(origOf), func(lo, hi int) {
		var blocked []int32
		for i := lo; i < hi; i++ {
			v := origOf[i]
			blocked = gatherBlocked(in.G.Neighbors(v), col, blocked[:0])
			src := in.Palettes[v]
			p := make([]int32, 0, len(src))
			pal[i] = subtractSorted(p, src, blocked)
		}
	})
	return &Instance{G: sub, Palettes: pal}, origOf
}

// ReduceUncoloredPar is ReducePar over exactly the uncolored nodes of col.
func ReduceUncoloredPar(r *par.Runner, in *Instance, col *Coloring) (res *Instance, origOf []int32) {
	var nodes []int32
	for v := int32(0); v < int32(in.G.N()); v++ {
		if col.Colors[v] == Uncolored {
			nodes = append(nodes, v)
		}
	}
	return ReducePar(r, in, col, nodes)
}

// TestReduceArenaMatchesReducePar pins the arena reduction bit-identical
// to the allocating path — graph, origOf, and every shrunk palette —
// across palette shapes, worker bounds, and repeated reuse of one arena.
func TestReduceArenaMatchesReducePar(t *testing.T) {
	g := graph.Gnp(300, 0.03, 5)
	instances := []*Instance{
		TrivialPalettes(g),
		RandomPalettes(g, 2, 64, 7),
		ShiftedPalettes(g, 4, 16),
	}
	ar := NewReduceArena()
	for ii, in := range instances {
		// Color an arbitrary-but-deterministic third of the nodes.
		col := NewColoring(in.N())
		for v := int32(0); v < int32(in.N()); v++ {
			if v%3 == 0 {
				col.Colors[v] = in.Palettes[v][0]
			}
		}
		var nodes []int32
		for v := int32(0); v < int32(in.N()); v++ {
			if v%3 != 0 {
				nodes = append(nodes, v)
			}
		}
		for _, bound := range []int{1, 4} {
			r := par.NewRunner(bound)
			want, wantOrig := ReducePar(r, in, col, nodes)
			got, gotOrig := ar.ReducePar(r, in, col, nodes)
			if !slices.Equal(wantOrig, gotOrig) {
				t.Fatalf("in%d bound%d: origOf mismatch", ii, bound)
			}
			if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
				t.Fatalf("in%d bound%d: graph size mismatch", ii, bound)
			}
			for v := int32(0); v < int32(want.N()); v++ {
				if !slices.Equal(got.G.Neighbors(v), want.G.Neighbors(v)) {
					t.Fatalf("in%d bound%d: adjacency of %d differs", ii, bound, v)
				}
				if !slices.Equal(got.Palettes[v], want.Palettes[v]) {
					t.Fatalf("in%d bound%d: palette of %d = %v, want %v",
						ii, bound, v, got.Palettes[v], want.Palettes[v])
				}
			}
			if err := got.Check(); err != nil {
				t.Fatalf("in%d bound%d: arena instance invalid: %v", ii, bound, err)
			}
		}
	}
}

// TestReduceArenaUncolored pins the uncolored-scan variant against
// ReduceUncoloredPar, including arena reuse across differently-sized
// residues (the recursion pattern).
func TestReduceArenaUncolored(t *testing.T) {
	ar := NewReduceArena()
	for _, n := range []int{200, 40, 150} {
		g := graph.Gnp(n, 0.05, uint64(n))
		in := RandomPalettes(g, 1, 48, uint64(n)+1)
		col := NewColoring(n)
		for v := int32(0); v < int32(n); v += 2 {
			col.Colors[v] = in.Palettes[v][0]
		}
		want, wantOrig := ReduceUncoloredPar(nil, in, col)
		got, gotOrig := ar.ReduceUncolored(nil, in, col)
		if !slices.Equal(wantOrig, gotOrig) {
			t.Fatalf("n=%d: origOf mismatch", n)
		}
		if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
			t.Fatalf("n=%d: graph size mismatch", n)
		}
		for v := int32(0); v < int32(want.N()); v++ {
			if !slices.Equal(got.Palettes[v], want.Palettes[v]) {
				t.Fatalf("n=%d: palette of %d differs", n, v)
			}
		}
	}
}
