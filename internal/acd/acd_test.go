package acd

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/params"
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

func BenchmarkCompute(b *testing.B) {
	g := graph.Mixed(600, 1)
	in := d1lc.TrivialPalettes(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputePar(nil, in, Options{})
	}
}

// referencePar is ComputePar as it stood with friend lists: the friend
// pass runs on par.For's equal node ranges, appends every node's friends
// to its own slice and counts them into friendDeg, and the clique search
// walks those slices. The differential tests hold ComputePar to it.
func referencePar(r *par.Runner, in *d1lc.Instance, opts Options) *ACD {
	opts = opts.withDefaults()
	g := in.G
	n := g.N()
	pr := params.ComputePar(r, in)

	// Friend-edge counts per node, reading the per-arc common-neighbor
	// counts the parameter pass just computed (CommonNbrs) instead of
	// re-intersecting every adjacency pair — the friend test is the only
	// consumer of the intersection sizes, and recomputing them here used
	// to double the schedule build's quadratic-in-degree work.
	friendDeg := make([]int, n)
	friendAdj := make([][]int32, n)
	r.For(n, func(i int) {
		if r.Err() != nil {
			return // cancelled: the parameter pass was skipped too
		}
		v := int32(i)
		dv := g.Degree(v)
		lo := g.ArcOffset(v)
		for k, u := range g.Neighbors(v) {
			du := g.Degree(u)
			maxd := dv
			if du > maxd {
				maxd = du
			}
			common := int(pr.CommonNbrs[lo+k])
			if float64(common) >= (1-opts.EpsFriend)*float64(maxd) {
				friendAdj[v] = append(friendAdj[v], u)
			}
		}
		friendDeg[v] = len(friendAdj[v])
	})

	dense := make([]bool, n)
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		if d > 0 && float64(friendDeg[v]) >= (1-opts.EpsFriend)*float64(d) {
			dense[v] = true
		}
	}

	// Almost-cliques: components of the friend graph on dense nodes.
	cliqueOf := make([]int32, n)
	for i := range cliqueOf {
		cliqueOf[i] = -1
	}
	var cliques [][]int32
	var stack []int32
	for v := int32(0); v < int32(n); v++ {
		if !dense[v] || cliqueOf[v] >= 0 {
			continue
		}
		id := int32(len(cliques))
		var members []int32
		cliqueOf[v] = id
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, w := range friendAdj[u] {
				if dense[w] && cliqueOf[w] < 0 {
					cliqueOf[w] = id
					stack = append(stack, w)
				}
			}
		}
		slices.Sort(members)
		cliques = append(cliques, members)
	}
	// Dissolve undersized cliques.
	kept := cliques[:0]
	remap := make([]int32, len(cliques))
	for i, c := range cliques {
		if len(c) < minCliqueSize {
			remap[i] = -1
			for _, v := range c {
				dense[v] = false
				cliqueOf[v] = -1
			}
			continue
		}
		remap[i] = int32(len(kept))
		kept = append(kept, c)
	}
	cliques = kept
	for v := 0; v < n; v++ {
		if cliqueOf[v] >= 0 {
			cliqueOf[v] = remap[cliqueOf[v]]
		}
	}

	// Classify the rest.
	epsSp := opts.epsSparse()
	class := make([]Class, n)
	for v := int32(0); v < int32(n); v++ {
		switch {
		case dense[v]:
			class[v] = Dense
		case pr.IsEpsUneven(v, epsSp, g.Degree(v)) && !pr.IsEpsSparse(v, epsSp, g.Degree(v)):
			class[v] = Uneven
		default:
			class[v] = Sparse
		}
	}
	return &ACD{Class: class, CliqueOf: cliqueOf, Cliques: cliques, Params: pr}
}

// assertSameACD fails unless got's Class, CliqueOf and Cliques equal
// want's.
func assertSameACD(t *testing.T, label string, got, want *ACD) {
	t.Helper()
	if !slices.Equal(got.Class, want.Class) {
		t.Fatalf("%s: Class differs", label)
	}
	if !slices.Equal(got.CliqueOf, want.CliqueOf) {
		t.Fatalf("%s: CliqueOf differs", label)
	}
	if !slices.EqualFunc(got.Cliques, want.Cliques, slices.Equal[[]int32]) {
		t.Fatalf("%s: Cliques differ: %d vs %d cliques", label, len(got.Cliques), len(want.Cliques))
	}
}

// TestComputeParMatchesReference runs ComputePar against the friend-list
// reference on graphs whose ids are in weight order (Chung–Lu,
// preferential attachment), graphs with every class, with planted
// cliques and with a noisy clique's failed friend tests, a hub, K6, and
// the empty and one-node graphs. Every runner, the nil one included, must
// give the reference's classes and cliques, so the result depends on
// neither the worker count nor the claim order of the ranges.
func TestComputeParMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"chunglu", graph.ChungLu(4000, 2.5, 8, 1)},
		{"powerlaw", graph.PowerLaw(2000, 4, 2)},
		{"mixed", graph.Mixed(600, 11)},
		{"cliques", graph.CliquesPlusMatching(6, 20, 3)},
		{"noisy", graph.NoisyClique(40, 20, 0.1, 5)},
		{"star", graph.Star(40)},
		// In K6 every common-neighbour count, 4, equals (1−ε)·5 at the
		// default ε: each friend test sits on its threshold.
		{"k6", graph.Complete(6)},
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
		in := d1lc.TrivialPalettes(gc.g)
		want := referencePar(par.NewRunner(1), in, Options{})
		for _, rc := range runners {
			assertSameACD(t, gc.name+"/"+rc.name, ComputePar(rc.r, in, Options{}), want)
		}
	}
}

// TestComputeParCancelledSkipsWork pins the per-range cancellation poll:
// a runner cancelled before the call computes no parameters and marks no
// node dense, so the decomposition has no clique.
func TestComputeParCancelledSkipsWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := d1lc.TrivialPalettes(graph.CliquesPlusMatching(3, 12, 1))
	a := ComputePar(par.NewRunner(2).WithContext(ctx), in, Options{})
	if len(a.Cliques) != 0 || slices.Contains(a.Class, Dense) {
		t.Fatalf("a cancelled runner still found %d cliques", len(a.Cliques))
	}
	if slices.ContainsFunc(a.Params.CommonNbrs, func(c int32) bool { return c != 0 }) {
		t.Fatal("a cancelled runner still counted common neighbours")
	}
}

// FuzzComputeACD holds ComputePar to the friend-list reference on
// arbitrary small graphs. data[0] mod 49 is the node count n ≤ 48, and
// the remaining bytes are edges, as pairs mod n: self-loops and duplicate
// edges are allowed, and the builder drops them. eps mod 50 selects
// EpsFriend in hundredths (0 = the default 0.20). At one worker and at
// four, Class, CliqueOf and Cliques must equal the reference's.
func FuzzComputeACD(f *testing.F) {
	f.Add([]byte{}, uint8(0))                                                              // n = 0
	f.Add([]byte{1, 0, 0}, uint8(0))                                                       // n = 1, a self-loop
	f.Add([]byte{6, 0, 1, 1, 0, 0, 2, 1, 2, 3, 4, 4, 5, 3, 5}, uint8(10))                  // two triangles
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}, uint8(0)) // K5
	f.Fuzz(func(t *testing.T, data []byte, eps uint8) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%49, data[1:]
		}
		b := graph.NewBuilder(n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		in := d1lc.TrivialPalettes(b.Build())
		opts := Options{EpsFriend: float64(eps%50) / 100}
		want := referencePar(par.NewRunner(1), in, opts)
		for _, workers := range []int{1, 4} {
			assertSameACD(t, fmt.Sprintf("workers=%d", workers), ComputePar(par.NewRunner(workers), in, opts), want)
		}
	})
}
