// Package params computes the node parameters of Definition 2 (HKNT22),
// which drive the almost-clique decomposition, the Vstart identification,
// and the put-aside machinery:
//
//	slack      s(v)    = p(v) − d(v)
//	sparsity   ζ_v     = [ C(d(v),2) − m(N(v)) ] / d(v)
//	disparity  η̄_{u,v} = |Ψ(u) \ Ψ(v)| / |Ψ(u)|
//	discrepancy η̄_v   = Σ_{u∈N(v)} η̄_{u,v}
//	unevenness  η_v    = Σ_{u∈N(v)} max(0, d(u)−d(v)) / (d(u)+1)
//	slackability σ̄_v  = η̄_v + ζ_v,  strong slackability σ_v = η_v + ζ_v
//
// All parameters are computable from the 2-hop neighborhood, which is why
// Lemma 18 computes them in O(1) MPC rounds once Δ ≤ √s; here they are
// computed in parallel over nodes with the same information locality.
package params

import (
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// Params holds every Definition 2 parameter for each node of an instance.
type Params struct {
	Slack       []int     // p(v) − d(v)
	NonEdges    []int64   // C(d(v),2) − m(N(v))
	Sparsity    []float64 // ζ_v
	Discrepancy []float64 // η̄_v
	Unevenness  []float64 // η_v
	Slackab     []float64 // σ̄_v = discrepancy + sparsity
	StrongSlack []float64 // σ_v = unevenness + sparsity

	// CommonNbrs[g.ArcOffset(v)+k] = |N(v) ∩ N(u)| for u the k-th neighbor
	// of v. The counts fall out of the m(N(v)) computation (each edge of
	// N(v) appears in exactly two of v's arc intersections, so m(N(v)) is
	// half their sum) and the ACD friend-edge pass reuses them instead of
	// re-intersecting every adjacency pair — the single most expensive
	// redundancy of the schedule build at million-node scale.
	CommonNbrs []int32
}

// ComputePar evaluates all parameters for the instance, with the per-node
// pass — quadratic in degree through the non-edge counts and palette
// disparities — scoped to r's worker budget (nil = process default) and
// cancellation. When r is cancelled mid-pass the remaining nodes keep
// zero parameters; callers threading a cancellable runner must check
// r.Err() before using the result.
func ComputePar(r *par.Runner, in *d1lc.Instance) *Params {
	// Naming the graph package here, rather than reaching it only through
	// d1lc, gives the compiler graph's inline bodies: g.M and g.ArcOffset
	// inline instead of being called.
	var g *graph.Graph = in.G
	n := g.N()
	p := &Params{
		Slack:       make([]int, n),
		NonEdges:    make([]int64, n),
		Sparsity:    make([]float64, n),
		Discrepancy: make([]float64, n),
		Unevenness:  make([]float64, n),
		Slackab:     make([]float64, n),
		StrongSlack: make([]float64, n),
		CommonNbrs:  make([]int32, 2*g.M()),
	}
	r.For(n, func(i int) {
		if r.Err() != nil {
			return // cancelled: skip the quadratic work, result discarded
		}
		v := int32(i)
		d := g.Degree(v)
		ns := g.Neighbors(v)
		p.Slack[v] = len(in.Palettes[v]) - d
		if d > 0 {
			// m(N(v)) via per-arc intersections: an edge {x,y} of N(v)
			// lands in the intersections of arcs v→x and v→y, so the sum
			// double-counts it — identical to CountEdgesAmong, but every
			// per-arc count is kept for the ACD friend pass.
			lo := g.ArcOffset(v)
			var twiceM int64
			for k, u := range ns {
				c := intersectionSize(ns, g.Neighbors(u))
				p.CommonNbrs[lo+k] = int32(c)
				twiceM += int64(c)
			}
			pairs := int64(d) * int64(d-1) / 2
			p.NonEdges[v] = pairs - twiceM/2
			p.Sparsity[v] = float64(p.NonEdges[v]) / float64(d)
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
		p.StrongSlack[v] = unev + p.Sparsity[v]
	})
	return p
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
