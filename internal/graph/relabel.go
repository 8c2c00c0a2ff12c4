package graph

import (
	"fmt"
	"sort"

	"parcolor/internal/par"
)

// This file holds two views of the vertex space. Relabeling is the
// degree-sorted permutation: high-degree vertices first, stable within
// equal degrees, so regular graphs relabel to the identity. The permuted
// graph is a plain Graph, every algorithm runs on it unchanged, and the
// inverse permutation maps any per-node result back to original ids
// exactly (MapBack). ArcRanges cuts the id space into ranges of about
// equal arc count, which every per-node pass whose cost follows degree
// hands to par.Runner.ForRanges.

// Relabeling is a vertex bijection. NewOf and OldOf are inverse
// permutations: NewOf[old] = new, OldOf[new] = old.
type Relabeling struct {
	NewOf []int32
	OldOf []int32
}

// DegreeSorted returns the degree-descending stable relabeling of g.
// Stability means vertices of equal degree keep their relative id order;
// in particular, a regular graph's relabeling is the identity
// permutation. The permutation is a counting sort by degree: O(n + Δ), no
// comparison sort.
func DegreeSorted(g *Graph) *Relabeling {
	n := g.N()
	maxD := g.MaxDegree()
	// Counting sort, descending degree: bucket b collects degree maxD-b.
	counts := make([]int32, maxD+2)
	for v := 0; v < n; v++ {
		counts[maxD-g.Degree(int32(v))+1]++
	}
	for i := 0; i <= maxD; i++ {
		counts[i+1] += counts[i]
	}
	rl := &Relabeling{
		NewOf: make([]int32, n),
		OldOf: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		b := maxD - g.Degree(int32(v))
		i := counts[b]
		counts[b]++
		rl.NewOf[v] = i
		rl.OldOf[i] = int32(v)
	}
	return rl
}

// Apply builds the relabeled graph: new vertex i is old vertex OldOf[i],
// with neighbors mapped through NewOf. Construction is streaming (exact
// counting pass, direct fill into the output CSR) with per-list sorts on
// r's workers; peak memory is the output graph.
func (rl *Relabeling) Apply(r *par.Runner, g *Graph) *Graph {
	n := g.N()
	if len(rl.NewOf) != n || len(rl.OldOf) != n {
		panic(fmt.Sprintf("graph: relabeling for %d nodes applied to %d-node graph", len(rl.NewOf), n))
	}
	b := NewStreamBuilder(n)
	for i := 0; i < n; i++ {
		b.CountArcs(int32(i), g.Degree(rl.OldOf[i]))
	}
	b.BeginFill()
	r.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, u := range g.Neighbors(rl.OldOf[i]) {
				b.FillArc(int32(i), rl.NewOf[u])
			}
		}
	})
	out, err := b.Finish(r, false)
	if err != nil {
		panic(fmt.Sprintf("graph: relabel apply: %v", err))
	}
	return out
}

// MapBack translates a per-new-id result vector to original ids:
// out[old] = vals[NewOf[old]]. The translation is exact — it inverts
// the relabeling on every input, which is what lets a solve run entirely
// on the relabeled graph and still report original-id results
// bit-identically.
func (rl *Relabeling) MapBack(vals []int32) []int32 {
	out := make([]int32, len(vals))
	for old, newID := range rl.NewOf {
		out[old] = vals[newID]
	}
	return out
}

// rangesPerWorker is how many node ranges of equal arc count ArcRanges
// gives each worker on average. The work per arc is uneven too (params
// charges an edge to its higher-degree endpoint, and generators such as
// Chung–Lu number hubs first), so workers claim several smaller ranges
// rather than one fixed share each.
const rangesPerWorker = 8

// ArcRanges cuts g's nodes into k = rangesPerWorker·r.Workers(n) ranges
// of about equal arc count, as par.Runner.ForRanges offsets (k+1 cuts,
// non-decreasing from 0 to n): range i starts at the first node whose
// arcs start at or past i/k of all arcs. It is the work split of every
// per-node pass whose cost follows degree (the Definition 2 parameters,
// the ACD friend pass, sparsify's same-bin degrees), where one equal node
// range per worker is not equal work on weight-ordered graphs. A node
// with more than one range's share of arcs ends up alone in its range,
// and empty ranges are left in place (ForRanges skips them).
func ArcRanges(r *par.Runner, g *Graph) []int32 {
	n, arcs := g.N(), int64(2*g.M())
	k := rangesPerWorker * r.Workers(n)
	offs := make([]int32, k+1)
	for i := 1; i < k; i++ {
		target := int(int64(i) * arcs / int64(k))
		offs[i] = int32(sort.Search(n, func(v int) bool { return g.ArcOffset(int32(v)) >= target }))
	}
	offs[k] = int32(n)
	return offs
}
