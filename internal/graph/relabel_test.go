package graph

import (
	"fmt"
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

// Validate checks the bijection invariants (each of NewOf/OldOf is the
// other's inverse) and the shard cover (offsets ascending from 0 to n).
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
	if len(rl.ShardOffsets) < 2 || rl.ShardOffsets[0] != 0 || rl.ShardOffsets[len(rl.ShardOffsets)-1] != int32(n) {
		return fmt.Errorf("graph: shard offsets %v do not cover [0,%d)", rl.ShardOffsets, n)
	}
	for s := 1; s < len(rl.ShardOffsets); s++ {
		if rl.ShardOffsets[s] <= rl.ShardOffsets[s-1] && n > 0 {
			return fmt.Errorf("graph: shard %d empty or out of order", s-1)
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
		rl := DegreeSortedSharded(g, 64)
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

func TestRelabelShardBudget(t *testing.T) {
	g := Gnp(500, 0.05, 3)
	budget := 128
	rl := DegreeSortedSharded(g, budget)
	shards := len(rl.ShardOffsets) - 1
	if shards < 2 {
		t.Fatalf("expected multiple shards, got %d", shards)
	}
	for s := 0; s < shards; s++ {
		lo, hi := rl.ShardOffsets[s], rl.ShardOffsets[s+1]
		vol := 0
		for i := lo; i < hi; i++ {
			vol += g.Degree(rl.OldOf[i])
		}
		// A shard may exceed the budget only when it is a single vertex
		// whose degree alone does.
		if vol > budget && hi-lo > 1 {
			t.Fatalf("shard %d: volume %d over budget %d with %d vertices", s, vol, budget, hi-lo)
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
		rl := DegreeSortedSharded(g, 1+int(seed%512))
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
