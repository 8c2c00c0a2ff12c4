package graph

import (
	"fmt"
	"slices"
	"testing"

	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// MapForward translates a per-old-id vector to new ids:
// out[new] = vals[OldOf[new]].
func (rl *Relabeling) MapForward(vals []int32) []int32 {
	out := make([]int32, len(vals))
	for newID, old := range rl.OldOf {
		out[newID] = vals[old]
	}
	return out
}

// Validate checks the bijection invariants: each of NewOf/OldOf is the
// other's inverse.
func (rl *Relabeling) Validate() error {
	n := len(rl.NewOf)
	if len(rl.OldOf) != n {
		return fmt.Errorf("graph: relabeling NewOf/OldOf length mismatch %d vs %d", n, len(rl.OldOf))
	}
	for v := 0; v < n; v++ {
		i := rl.NewOf[v]
		if i < 0 || int(i) >= n {
			return fmt.Errorf("graph: NewOf[%d] = %d out of range", v, i)
		}
		if rl.OldOf[i] != int32(v) {
			return fmt.Errorf("graph: OldOf[NewOf[%d]] = %d, want %d", v, rl.OldOf[i], v)
		}
	}
	return nil
}

func relabelTestGraphs() map[string]*Graph {
	return map[string]*Graph{
		"empty":     FromAdjacency([][]int32{}),
		"singleton": FromAdjacency([][]int32{{}}),
		"star":      Star(40),
		"complete":  Complete(12),
		"cycle":     Cycle(33),
		"gnp":       Gnp(300, 0.03, 7),
		"mixed":     Mixed(200, 5),
		"powerlaw":  ChungLu(400, 2.5, 12, 11),
	}
}

func TestDegreeSortedBijectionAndOrder(t *testing.T) {
	for name, g := range relabelTestGraphs() {
		rl := DegreeSorted(g)
		if err := rl.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Degrees are non-increasing along the new order.
		for i := 1; i < g.N(); i++ {
			if g.Degree(rl.OldOf[i]) > g.Degree(rl.OldOf[i-1]) {
				t.Fatalf("%s: degree order violated at %d", name, i)
			}
		}
		// Stable within equal degree: ids ascend inside a degree class.
		for i := 1; i < g.N(); i++ {
			if g.Degree(rl.OldOf[i]) == g.Degree(rl.OldOf[i-1]) && rl.OldOf[i] < rl.OldOf[i-1] {
				t.Fatalf("%s: stability violated at %d", name, i)
			}
		}
	}
}

func TestDegreeSortedRegularIsIdentity(t *testing.T) {
	g := Cycle(50)
	rl := DegreeSorted(g)
	for v := 0; v < g.N(); v++ {
		if rl.NewOf[v] != int32(v) || rl.OldOf[v] != int32(v) {
			t.Fatalf("regular graph relabeling not identity at %d", v)
		}
	}
}

func TestRelabelApplyPreservesStructure(t *testing.T) {
	r := par.NewRunner(0)
	for name, g := range relabelTestGraphs() {
		rl := DegreeSorted(g)
		pg := rl.Apply(r, g)
		if err := pg.Validate(); err != nil {
			t.Fatalf("%s: permuted graph invalid: %v", name, err)
		}
		if pg.N() != g.N() || pg.M() != g.M() {
			t.Fatalf("%s: size changed n=%d->%d m=%d->%d", name, g.N(), pg.N(), g.M(), pg.M())
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if pg.Degree(rl.NewOf[v]) != g.Degree(v) {
				t.Fatalf("%s: degree of %d changed", name, v)
			}
			for _, u := range g.Neighbors(v) {
				if !pg.HasEdge(rl.NewOf[v], rl.NewOf[u]) {
					t.Fatalf("%s: edge (%d,%d) lost under relabeling", name, v, u)
				}
			}
		}
	}
}

func TestMapBackRoundtrip(t *testing.T) {
	s := rng.New(rng.Hash2(5, 9))
	g := Gnp(250, 0.04, 4)
	rl := DegreeSorted(g)
	vals := make([]int32, g.N())
	for i := range vals {
		vals[i] = int32(s.Intn(1000))
	}
	back := rl.MapBack(rl.MapForward(vals))
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("roundtrip mismatch at %d: %d vs %d", i, back[i], vals[i])
		}
	}
	fwd := rl.MapForward(vals)
	for newID, old := range rl.OldOf {
		if fwd[newID] != vals[old] {
			t.Fatalf("forward map wrong at %d", newID)
		}
	}
}

func FuzzDegreeSortedBijection(f *testing.F) {
	f.Add(uint64(1), 50, 40)
	f.Add(uint64(7), 1, 0)
	f.Add(uint64(9), 200, 500)
	f.Fuzz(func(t *testing.T, seed uint64, n, extra int) {
		if n < 0 || n > 2000 || extra < 0 || extra > 5000 {
			t.Skip()
		}
		s := rng.New(rng.Hash2(seed, 0xF2))
		b := NewBuilder(n)
		for i := 0; i < extra && n > 1; i++ {
			b.AddEdge(int32(s.Intn(n)), int32(s.Intn(n)))
		}
		g := b.Build()
		rl := DegreeSorted(g)
		if err := rl.Validate(); err != nil {
			t.Fatal(err)
		}
		pg := rl.Apply(par.NewRunner(0), g)
		if err := pg.Validate(); err != nil {
			t.Fatal(err)
		}
		if pg.M() != g.M() {
			t.Fatalf("edge count changed %d -> %d", g.M(), pg.M())
		}
	})
}

// TestArcRanges checks the equal-arc cut: k+1 non-decreasing offsets from
// 0 to n, k = rangesPerWorker per worker, and no range holding more than
// one share of the arcs unless it is a single node. A hub heavier than a
// share sits alone in its range, with empty ranges after it; the empty
// and edgeless graphs cut to empty ranges plus, at most, one range of
// every node.
func TestArcRanges(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"chunglu", ChungLu(4000, 2.5, 8, 1)},
		{"star", Star(200)},
		{"gnp", Gnp(300, 0.03, 7)},
		{"n0", Empty(0)},
		{"edgeless", Empty(50)},
	}
	for _, gc := range graphs {
		g, n, arcs := gc.g, gc.g.N(), 2*gc.g.M()
		for _, workers := range []int{1, 2, 4} {
			r := par.NewRunner(workers)
			offs := ArcRanges(r, g)
			k := rangesPerWorker * r.Workers(n)
			if len(offs) != k+1 || offs[0] != 0 || offs[k] != int32(n) {
				t.Fatalf("%s w=%d: %d offsets from %d to %d, want %d from 0 to %d", gc.name, workers, len(offs), offs[0], offs[len(offs)-1], k+1, n)
			}
			for i := 0; i < k; i++ {
				lo, hi := offs[i], offs[i+1]
				if hi < lo {
					t.Fatalf("%s w=%d: offsets decrease at %d: %v", gc.name, workers, i, offs)
				}
				rangeArcs := 0
				if hi > lo {
					rangeArcs = g.ArcOffset(hi-1) + g.Degree(hi-1) - g.ArcOffset(lo)
				}
				if hi-lo > 1 && rangeArcs > arcs/k+g.Degree(hi-1) {
					t.Fatalf("%s w=%d: range %d [%d,%d) holds %d arcs, a share is %d", gc.name, workers, i, lo, hi, rangeArcs, arcs/k)
				}
			}
		}
	}
	// The star's hub holds half of all arcs: at two workers (16 ranges)
	// it is alone in range 0, and ranges 1..7 are empty.
	offs := ArcRanges(par.NewRunner(2), Star(200))
	if offs[1] != 1 || offs[8] != 1 {
		t.Fatalf("star: hub not alone ahead of empty ranges: %v", offs)
	}
	// No arcs: every cut but the last is node 0.
	offs = ArcRanges(par.NewRunner(2), Empty(50))
	if slices.ContainsFunc(offs[:len(offs)-1], func(o int32) bool { return o != 0 }) {
		t.Fatalf("edgeless: %v", offs)
	}
}
