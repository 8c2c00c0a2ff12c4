package acd

import (
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

func TestPlantedCliquesRecovered(t *testing.T) {
	g := graph.CliquesPlusMatching(4, 12, 1)
	in := d1lc.TrivialPalettes(g)
	a := ComputePar(nil, in, Options{})
	if len(a.Cliques) != 4 {
		t.Fatalf("recovered %d cliques, want 4", len(a.Cliques))
	}
	for ci, members := range a.Cliques {
		if len(members) != 12 {
			t.Fatalf("clique %d has %d members", ci, len(members))
		}
		// Members must share a block of 12 consecutive ids.
		base := members[0] / 12
		for _, v := range members {
			if v/12 != base {
				t.Fatalf("clique %d mixes blocks: %v", ci, members)
			}
		}
	}
	if v := a.Verify(g); len(v) != 0 {
		t.Fatalf("definition 3 violations on planted cliques: %v", v)
	}
}

func TestNoisyCliqueStillDense(t *testing.T) {
	g := graph.NoisyClique(30, 0, 0.05, 2)
	in := d1lc.TrivialPalettes(g)
	a := ComputePar(nil, in, Options{})
	st := a.Summarize()
	if st.NumDense < 25 {
		t.Fatalf("only %d of 30 noisy-clique nodes classified dense", st.NumDense)
	}
	if st.NumCliques != 1 {
		t.Fatalf("%d cliques, want 1", st.NumCliques)
	}
}

func TestSparseRandomGraphHasNoCliques(t *testing.T) {
	g := graph.Gnp(300, 0.02, 3)
	in := d1lc.TrivialPalettes(g)
	a := ComputePar(nil, in, Options{})
	st := a.Summarize()
	if st.NumDense > 10 {
		t.Fatalf("sparse G(n,p) produced %d dense nodes", st.NumDense)
	}
	// Essentially everything should be sparse or uneven.
	if st.NumSparse+st.NumUneven < 290 {
		t.Fatalf("classification: %+v", st)
	}
}

func TestCaterpillarLegsUneven(t *testing.T) {
	// Legs attach to spine nodes of much larger degree: with a sparsity
	// threshold they don't meet (legs have degree 1, zero sparsity) they
	// must be classified uneven.
	g := graph.Caterpillar(12, 6)
	in := d1lc.TrivialPalettes(g)
	a := ComputePar(nil, in, Options{})
	legStart := int32(12)
	uneven := 0
	for v := legStart; v < int32(g.N()); v++ {
		if a.Class[v] == Uneven {
			uneven++
		}
	}
	if uneven < g.N()-12-6 { // allow boundary-effect slop
		t.Fatalf("only %d legs uneven", uneven)
	}
}

func TestMixedGraphAllClassesPresent(t *testing.T) {
	g := graph.Mixed(240, 7)
	in := d1lc.TrivialPalettes(g)
	a := ComputePar(nil, in, Options{})
	st := a.Summarize()
	if st.NumSparse == 0 || st.NumUneven == 0 || st.NumDense == 0 {
		t.Fatalf("mixed graph missing a class: %+v", st)
	}
}

func TestCliqueOfConsistency(t *testing.T) {
	g := graph.CliquesPlusMatching(3, 8, 5)
	a := ComputePar(nil, d1lc.TrivialPalettes(g), Options{})
	for v := int32(0); v < int32(g.N()); v++ {
		if a.Class[v] == Dense {
			ci := a.CliqueOf[v]
			if ci < 0 || int(ci) >= len(a.Cliques) {
				t.Fatalf("dense node %d has clique %d", v, ci)
			}
			found := false
			for _, u := range a.Cliques[ci] {
				if u == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d missing from its clique", v)
			}
		} else if a.CliqueOf[v] != -1 {
			t.Fatalf("non-dense node %d has clique %d", v, a.CliqueOf[v])
		}
	}
}

func TestCliqueDiameterTwo(t *testing.T) {
	// Definition 3 (iv) implies diameter ≤ 2 (proof of Lemma 19); check it
	// holds on a workload with fringe noise.
	g := graph.NoisyClique(24, 12, 0.08, 9)
	a := ComputePar(nil, d1lc.TrivialPalettes(g), Options{})
	for _, members := range a.Cliques {
		inClique := map[int32]bool{}
		for _, v := range members {
			inClique[v] = true
		}
		for _, u := range members {
			for _, v := range members {
				if u >= v || g.HasEdge(u, v) {
					continue
				}
				common := false
				for _, w := range g.Neighbors(u) {
					if inClique[w] && g.HasEdge(w, v) {
						common = true
						break
					}
				}
				if !common {
					t.Fatalf("clique members %d,%d at distance >2", u, v)
				}
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.EpsFriend != 0.20 || epsAC != 1.0 || minCliqueSize != 2 {
		t.Fatalf("defaults: %+v, epsAC %v, minCliqueSize %d", o, epsAC, minCliqueSize)
	}
	if eps := o.epsSparse(); eps < 0.04-1e-12 || eps > 0.04+1e-12 {
		t.Fatalf("eps sparse default: %f", eps)
	}
	custom := Options{EpsFriend: 0.1}.withDefaults()
	if eps := custom.epsSparse(); eps < 0.1*0.1-1e-12 || eps > 0.1*0.1+1e-12 {
		t.Fatal("eps sparse should track eps friend")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Mixed(200, 11)
	in := d1lc.TrivialPalettes(g)
	a := ComputePar(nil, in, Options{})
	b := ComputePar(nil, in, Options{})
	for v := range a.Class {
		if a.Class[v] != b.Class[v] || a.CliqueOf[v] != b.CliqueOf[v] {
			t.Fatalf("nondeterministic at node %d", v)
		}
	}
}

func BenchmarkCompute(b *testing.B) {
	g := graph.Mixed(600, 1)
	in := d1lc.TrivialPalettes(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputePar(nil, in, Options{})
	}
}
