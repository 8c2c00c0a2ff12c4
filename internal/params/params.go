// Package params computes the node parameters of Definition 2 (HKNT22),
// which drive the almost-clique decomposition, the Vstart identification,
// and the put-aside machinery:
//
//	sparsity   ζ_v     = [ C(d(v),2) − m(N(v)) ] / d(v)
//	disparity  η̄_{u,v} = |Ψ(u) \ Ψ(v)| / |Ψ(u)|
//	discrepancy η̄_v   = Σ_{u∈N(v)} η̄_{u,v}
//	unevenness  η_v    = Σ_{u∈N(v)} max(0, d(u)−d(v)) / (d(u)+1)
//	slackability σ̄_v  = η̄_v + ζ_v
//
// All parameters are computable from the 2-hop neighborhood, which is why
// Lemma 18 computes them in O(1) MPC rounds once Δ ≤ √s; here they are
// computed in parallel over nodes with the same information locality.
package params

import (
	"slices"
	"sync"

	"parcolor/internal/bitset"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// Params holds, for each node of an instance, the Definition 2
// parameters that the decomposition and the schedule read.
type Params struct {
	Sparsity    []float64 // ζ_v
	Discrepancy []float64 // η̄_v
	Unevenness  []float64 // η_v
	Slackab     []float64 // σ̄_v = discrepancy + sparsity

	// CommonNbrs[g.ArcOffset(v)+k] = |N(v) ∩ N(u)| for u the k-th neighbor
	// of v; both arcs of an edge hold the same count. The sparsity pass
	// sums them (each edge of N(v) lies in exactly two of v's arc
	// intersections, so m(N(v)) is half the sum) and the ACD friend-edge
	// pass reuses them instead of re-intersecting every adjacency pair —
	// the single most expensive redundancy of the schedule build at
	// million-node scale.
	CommonNbrs []int32
}

// ComputePar evaluates all parameters for the instance in two passes,
// each over node ranges of about equal arc count (graph.ArcRanges) that
// r's workers (nil = process default) claim dynamically:
//
//   - pass 1 counts every edge's common neighbours once, into both of its
//     arcs (countCommon);
//   - pass 2 sums each node's counts into its sparsity and walks its
//     neighbours, in adjacency order, for discrepancy and unevenness.
//
// Both passes poll r's cancellation once per range. When r is cancelled
// mid-pass the remaining ranges keep zero parameters; callers threading a
// cancellable runner must check r.Err() before using the result.
func ComputePar(r *par.Runner, in *d1lc.Instance) *Params {
	// Naming the graph package here, rather than reaching it only through
	// d1lc, gives the compiler graph's inline bodies: g.M and g.ArcOffset
	// inline instead of being called.
	var g *graph.Graph = in.G
	n := g.N()
	p := &Params{
		Sparsity:    make([]float64, n),
		Discrepancy: make([]float64, n),
		Unevenness:  make([]float64, n),
		Slackab:     make([]float64, n),
		CommonNbrs:  make([]int32, 2*g.M()),
	}
	ranges := graph.ArcRanges(r, g)
	r.ForRanges(ranges, func(lo, hi int) {
		if r.Err() != nil {
			return // cancelled: skip the quadratic work, result discarded
		}
		countCommon(g, p.CommonNbrs, lo, hi)
	})
	r.ForRanges(ranges, func(lo, hi int) {
		if r.Err() != nil {
			return
		}
		for v := int32(lo); v < int32(hi); v++ {
			d := g.Degree(v)
			if d > 0 {
				off := g.ArcOffset(v)
				var twiceM int64
				for _, c := range p.CommonNbrs[off : off+d] {
					twiceM += int64(c)
				}
				pairs := int64(d) * int64(d-1) / 2
				p.Sparsity[v] = float64(pairs-twiceM/2) / float64(d)
			}
			psiV := in.Palettes[v]
			var disc, unev float64
			for _, u := range g.Neighbors(v) {
				disc += Disparity(in.Palettes[u], psiV)
				du := g.Degree(u)
				if du > d {
					unev += float64(du-d) / float64(du+1)
				}
			}
			p.Discrepancy[v] = disc
			p.Unevenness[v] = unev
			p.Slackab[v] = disc + p.Sparsity[v]
		}
	})
	return p
}

// marks pools pass 1's neighbourhood masks, one per range in flight.
// A mask goes back all zero: countCommon clears every bit it sets.
var marks = sync.Pool{New: func() any { return new(bitset.Mask) }}

// countCommon fills CommonNbrs for every edge owned by a node of [lo, hi).
// An edge's owner is its endpoint of larger (degree, id). The owner marks
// its own neighbourhood once, then for each edge it owns scans the other
// endpoint's list against the mask, so an edge costs the smaller of its
// two degrees and is counted once; the count goes to both of its arcs.
//
// The second arc belongs to the other endpoint, which may lie in another
// worker's range, whereas ForRanges asks each body to write only to data
// of its own range. These writes are still race-free: every arc slot has
// exactly one writer, the owner of its edge, and nothing reads
// CommonNbrs until the pass has ended.
func countCommon(g *graph.Graph, common []int32, lo, hi int) {
	mp := marks.Get().(*bitset.Mask)
	mark := mp.Grow(g.N())
	for v := int32(lo); v < int32(hi); v++ {
		dv := g.Degree(v)
		ns := g.Neighbors(v)
		off := g.ArcOffset(v)
		marked := false
		for k, u := range ns {
			if du := g.Degree(u); du > dv || du == dv && u > v {
				continue // u owns the edge
			}
			if !marked {
				for _, x := range ns {
					mark.Set(int(x))
				}
				marked = true
			}
			nu := g.Neighbors(u)
			var c int32
			for _, x := range nu {
				c += int32(mark[x>>6] >> (x & 63) & 1) // mark.Test(x), branch-free
			}
			back, _ := slices.BinarySearch(nu, v)
			common[off+k] = c
			common[g.ArcOffset(u)+back] = c
		}
		if marked {
			for _, x := range ns {
				mark[x>>6] = 0 // only N(v)'s bits are set: clear whole words
			}
		}
	}
	*mp = mark
	marks.Put(mp)
}

// Disparity returns η̄_{u,v} = |Ψ(u)\Ψ(v)| / |Ψ(u)| for sorted palettes.
// An empty Ψ(u) has disparity 0 by convention.
func Disparity(psiU, psiV []int32) float64 {
	if len(psiU) == 0 {
		return 0
	}
	return float64(len(psiU)-intersectionSize(psiU, psiV)) / float64(len(psiU))
}

// intersectionSize merges two sorted slices and counts common elements.
func intersectionSize(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// IsEpsSparse reports the Definition 3 condition "v is ε·d(v)-sparse":
// ζ_v ≥ ε·d(v).
func (p *Params) IsEpsSparse(v int32, eps float64, d int) bool {
	return p.Sparsity[v] >= eps*float64(d)
}

// IsEpsUneven reports the Definition 3 condition "v is ε·d(v)-uneven":
// η_v ≥ ε·d(v).
func (p *Params) IsEpsUneven(v int32, eps float64, d int) bool {
	return p.Unevenness[v] >= eps*float64(d)
}
