package graph

import (
	"fmt"

	"parcolor/internal/par"
)

// This file implements the degree-sorted sharded relabeling layer: a
// permutation of the vertex space that places high-degree vertices first
// (stable within equal degrees, so regular graphs relabel to the
// identity), plus shard boundaries cutting the permuted id space into
// runs whose CSR adjacency storage fits a cache budget. The permuted
// graph is a plain Graph — every algorithm runs on it unchanged — and the
// inverse permutation maps any per-node result back to original ids
// exactly (MapBack), so relabeling is a pure layout optimization:
// hub-adjacent traversals touch one dense shard instead of striding the
// whole adjacency array.

// DefaultShardAdjEntries is the default per-shard adjacency budget:
// 64Ki int32 entries = 256 KiB, sized for a typical L2 so one shard's
// adjacency walks stay cache-resident.
const DefaultShardAdjEntries = 64 << 10

// Relabeling is a vertex bijection with shard boundaries. NewOf and OldOf
// are inverse permutations: NewOf[old] = new, OldOf[new] = old.
type Relabeling struct {
	NewOf []int32
	OldOf []int32
	// ShardOffsets cuts the new id space: shard s is the half-open range
	// [ShardOffsets[s], ShardOffsets[s+1]) of new ids; one entry more
	// than there are shards.
	ShardOffsets []int32
}

// DegreeSorted returns the degree-descending stable relabeling of g with
// the default shard budget. Stability means vertices of equal degree keep
// their relative id order — in particular, a regular graph's relabeling
// is the identity permutation.
func DegreeSorted(g *Graph) *Relabeling {
	return DegreeSortedSharded(g, DefaultShardAdjEntries)
}

// DegreeSortedSharded is DegreeSorted with an explicit per-shard
// adjacency budget in entries (≤ 0 means DefaultShardAdjEntries). The
// permutation is a counting sort by degree — O(n + Δ), no comparison
// sort — and sharding is one greedy pass packing consecutive permuted
// vertices until the next vertex would push the shard's adjacency volume
// past the budget (a single vertex whose degree exceeds the budget gets a
// shard of its own).
func DegreeSortedSharded(g *Graph, shardAdjEntries int) *Relabeling {
	if shardAdjEntries <= 0 {
		shardAdjEntries = DefaultShardAdjEntries
	}
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
	// Greedy shard packing over the permuted order.
	rl.ShardOffsets = append(rl.ShardOffsets, 0)
	vol := 0
	for i := 0; i < n; i++ {
		d := g.Degree(rl.OldOf[i])
		if vol > 0 && vol+d > shardAdjEntries {
			rl.ShardOffsets = append(rl.ShardOffsets, int32(i))
			vol = 0
		}
		vol += d
	}
	rl.ShardOffsets = append(rl.ShardOffsets, int32(n))
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
