// Package acd computes the (deg+1) almost-clique decomposition of
// Definition 3 [AA20, HKNT22]: a partition of V into
// Vsparse ⊔ Vuneven ⊔ Vdense with Vdense further split into almost-cliques
// C_1,…,C_t such that members have degree ≈ |C| and ≈ |C| neighbors inside
// their clique.
//
// The construction is the standard friend-edge one: an edge uv is an
// ε-friend edge when |N(u) ∩ N(v)| ≥ (1−ε)·max(d(u), d(v)); a node is
// ε-dense when at least (1−ε)·d(v) of its edges are friend edges; the
// almost-cliques are the connected components of the friend graph induced
// on dense nodes. Non-dense nodes are classified sparse or uneven by the
// Definition 2 parameters. Lemma 19 computes all of this in O(1) MPC
// rounds from 2-hop neighborhoods; here the per-node work is parallelized
// the same way.
//
// Downstream correctness never depends on the decomposition being
// "right": misclassified nodes simply fail their success properties and
// are deferred by the framework. Verify reports how well the Definition 3
// conditions hold, which experiment E1 logs.
package acd

import (
	"slices"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/params"
)

// Class labels a node's role in the decomposition.
type Class int8

// The three classes of Definition 3.
const (
	Sparse Class = iota
	Uneven
	Dense
)

func (c Class) String() string {
	switch c {
	case Sparse:
		return "sparse"
	case Uneven:
		return "uneven"
	case Dense:
		return "dense"
	}
	return "?"
}

// Options carries the decomposition constants. Zero values select the
// defaults noted per field.
type Options struct {
	// EpsFriend is the ε of friend edges and density (default 0.20).
	EpsFriend float64
}

func (o Options) withDefaults() Options {
	if o.EpsFriend == 0 {
		o.EpsFriend = 0.20
	}
	return o
}

// epsSparse is ε_sp: sparse means ζ_v ≥ ε_sp·d(v); uneven means
// η_v ≥ ε_sp·d(v). It is ε²_friend, following AA20's relationship between
// density and sparsity constants.
func (o Options) epsSparse() float64 { return o.EpsFriend * o.EpsFriend }

// epsAC is the ε_ac Verify checks conditions (iii)/(iv) against: factor-2
// slop, which the friend construction guarantees for EpsFriend ≤ 1/5 at
// our scales.
const epsAC = 1.0

// minCliqueSize dissolves smaller friend components into Vsparse:
// singleton "cliques" are meaningless.
const minCliqueSize = 2

// ACD is the decomposition result.
type ACD struct {
	Class    []Class
	CliqueOf []int32   // clique index per node, −1 unless Class == Dense
	Cliques  [][]int32 // sorted member lists
	Params   *params.Params
}

// ComputePar builds the decomposition for an instance. Its two passes
// over 2-hop neighbourhoods, the Definition 2 parameters and the
// friend-edge count, run on node ranges of about equal arc count
// (graph.ArcRanges) that r's workers claim dynamically (nil = the default
// runner), polling r's cancellation once per range. The friend pass reads
// the per-arc common-neighbour counts of the parameter pass
// (Params.CommonNbrs) instead of re-intersecting adjacency lists, counts
// each node's friend arcs and marks it dense in place; the clique search
// then re-tests the same predicate while it walks a dense node's
// adjacency list, so no friend list is ever stored. When r is cancelled
// mid-pass the remaining nodes are skipped and the returned decomposition
// is incomplete; callers that thread a cancellable runner must check
// r.Err() before using the result (the solve drivers do, and discard it).
func ComputePar(r *par.Runner, in *d1lc.Instance, opts Options) *ACD {
	opts = opts.withDefaults()
	g := in.G
	n := g.N()
	pr := params.ComputePar(r, in)
	share := 1 - opts.EpsFriend
	// friend reports whether the arc at offset arc, from a node of degree
	// dv to one of degree du, is an ε-friend edge:
	// |N(v) ∩ N(u)| ≥ (1−ε)·max(d(v), d(u)).
	friend := func(arc, dv, du int) bool {
		return float64(pr.CommonNbrs[arc]) >= share*float64(max(dv, du))
	}

	dense := make([]bool, n)
	r.ForRanges(graph.ArcRanges(r, g), func(lo, hi int) {
		if r.Err() != nil {
			return // cancelled: the parameter pass was skipped too
		}
		for v := int32(lo); v < int32(hi); v++ {
			dv, off, friends := g.Degree(v), g.ArcOffset(v), 0
			for k, u := range g.Neighbors(v) {
				if friend(off+k, dv, g.Degree(u)) {
					friends++
				}
			}
			dense[v] = dv > 0 && float64(friends) >= share*float64(dv)
		}
	})

	// Almost-cliques: components of the friend graph on dense nodes,
	// each grown by a depth-first search that pushes a node's dense,
	// unassigned friends in adjacency order.
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
			du, off := g.Degree(u), g.ArcOffset(u)
			for k, w := range g.Neighbors(u) {
				if dense[w] && cliqueOf[w] < 0 && friend(off+k, du, g.Degree(w)) {
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

// Violation describes one failed Definition 3 condition.
type Violation struct {
	Node      int32
	Clique    int32
	Condition string
}

// Verify checks conditions (iii) d(v) ≤ (1+ε_ac)|C| and
// (iv) |C| ≤ (1+ε_ac)|N(v)∩C| for every clique member, plus the diameter-2
// property Lemma 19 relies on, and returns all violations (empty for a
// healthy decomposition).
func (a *ACD) Verify(g *graph.Graph) []Violation {
	var out []Violation
	for ci, members := range a.Cliques {
		size := float64(len(members))
		for _, v := range members {
			d := float64(g.Degree(v))
			inC := 0
			for _, u := range g.Neighbors(v) {
				if a.CliqueOf[u] == int32(ci) {
					inC++
				}
			}
			if d > (1+epsAC)*size {
				out = append(out, Violation{Node: v, Clique: int32(ci), Condition: "iii:degree>(1+eps)|C|"})
			}
			if size > (1+epsAC)*float64(inC) {
				out = append(out, Violation{Node: v, Clique: int32(ci), Condition: "iv:|C|>(1+eps)|N(v)∩C|"})
			}
		}
	}
	return out
}

// Stats summarizes the decomposition for experiment tables.
type Stats struct {
	NumSparse, NumUneven, NumDense int
	NumCliques                     int
	LargestClique                  int
}

// Summarize computes Stats.
func (a *ACD) Summarize() Stats {
	var s Stats
	for _, c := range a.Class {
		switch c {
		case Sparse:
			s.NumSparse++
		case Uneven:
			s.NumUneven++
		case Dense:
			s.NumDense++
		}
	}
	s.NumCliques = len(a.Cliques)
	for _, c := range a.Cliques {
		if len(c) > s.LargestClique {
			s.LargestClique = len(c)
		}
	}
	return s
}
