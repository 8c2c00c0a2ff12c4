package graph

import (
	"fmt"
	"math"
	"sort"

	"parcolor/internal/rng"
)

// This file contains the deterministic graph generators used as workloads
// by the experiment suite. Every generator takes an explicit seed; the same
// (parameters, seed) pair always yields the same graph.

// Empty returns the edgeless graph on n nodes.
func Empty(n int) *Graph { return NewBuilder(n).Build() }

// Complete returns K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Cycle returns C_n (n >= 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// Path returns P_n.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Star returns K_{1,n-1} with node 0 as the center.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Gnp returns an Erdős–Rényi G(n, p) graph. Edges are sampled by geometric
// skipping, so generation costs O(n + m) rather than O(n²) for small p.
func Gnp(n int, p float64, seed uint64) *Graph {
	b := NewBuilder(n)
	if p <= 0 || n < 2 {
		return b.Build()
	}
	if p >= 1 {
		return Complete(n)
	}
	b.Reserve(int(p * float64(int64(n)*int64(n-1)/2)))
	GnpEdges(n, p, seed, func(u, v int32) { b.AddEdge(u, v) })
	return b.Build()
}

// GnpEdges streams the edges of Gnp(n, p, seed) to emit without
// materializing the graph: duplicate-free pairs (u < v) in lexicographic
// order, O(1) memory. The stream is deterministic in seed and is exactly
// the edge set Gnp builds.
func GnpEdges(n int, p float64, seed uint64, emit func(u, v int32)) {
	if p <= 0 || n < 2 {
		return
	}
	if p >= 1 {
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				emit(u, v)
			}
		}
		return
	}
	s := rng.New(rng.Hash2(seed, 0xE5D0))
	// Iterate pairs (u,v), u<v, in lexicographic order with geometric skips.
	// pos is monotone, so the row cursor (rowStart, rowEnd for row u)
	// advances amortized O(1) per edge — the whole stream is O(n + m),
	// where a per-edge pairFromIndex lookup would make it O(n·m).
	total := int64(n) * int64(n-1) / 2
	pos := int64(-1)
	row := int64(0)
	rowStart, rowEnd := int64(0), int64(n-1)
	for {
		// Skip ~ Geometric(p): number of failures before next success.
		u01 := s.Float64()
		// log(1-u)/log(1-p); guard the degenerate draws.
		if u01 >= 1 {
			u01 = 0.9999999999999999
		}
		skip := int64(logRatio(u01, p))
		pos += 1 + skip
		if pos >= total {
			break
		}
		for pos >= rowEnd {
			row++
			rowStart = rowEnd
			rowEnd += int64(n-1) - row
		}
		emit(int32(row), int32(row+1+pos-rowStart))
	}
}

// logRatio computes log(1-u)/log(1-p), the geometric skip length used by
// the G(n,p) sampler; split out for testability.
func logRatio(u, p float64) float64 {
	return math.Log(1-u) / math.Log(1-p)
}

// RandomRegular returns a (near-)d-regular graph on n nodes via the
// permutation-matching construction: d rounds of random perfect matchings
// over a shuffled node sequence, dropping collisions. The result has
// maximum degree at most d and minimum degree at least d minus a small
// deficit; exact regularity is not needed by any experiment.
func RandomRegular(n, d int, seed uint64) *Graph {
	b := NewBuilder(n)
	s := rng.New(rng.Hash2(seed, 0x5E6))
	perm := make([]int32, n)
	for round := 0; round < d; round++ {
		s.Perm(perm)
		for i := 0; i+1 < n; i += 2 {
			b.AddEdge(perm[i], perm[i+1])
		}
	}
	return b.Build()
}

// PowerLaw returns a preferential-attachment (Barabási–Albert style) graph:
// nodes arrive one at a time and attach to k existing nodes chosen
// proportionally to degree+1. Produces the heavy-tailed degree
// distributions that exercise the high-degree machinery of HKNT22.
func PowerLaw(n, k int, seed uint64) *Graph {
	if n <= 0 {
		return Empty(0)
	}
	b := NewBuilder(n)
	s := rng.New(rng.Hash2(seed, 0xBA))
	// endpoints holds one entry per half-edge plus one per node, so sampling
	// uniformly from it approximates degree+1-proportional sampling.
	endpoints := make([]int32, 0, 2*n*k+n)
	endpoints = append(endpoints, 0)
	for v := 1; v < n; v++ {
		attach := k
		if attach > v {
			attach = v
		}
		for j := 0; j < attach; j++ {
			u := endpoints[s.Intn(len(endpoints))]
			if u == int32(v) {
				continue
			}
			b.AddEdge(int32(v), u)
			endpoints = append(endpoints, u)
		}
		endpoints = append(endpoints, int32(v))
	}
	return b.Build()
}

// ChungLu returns a random graph from the (fixed-edge-count) Chung–Lu
// model with a power-law weight sequence: vertex v carries weight
// w_v ∝ (v+1)^(-1/(beta-1)) for exponent beta > 1, and n·avgDeg/2
// candidate edges are drawn with both endpoints weight-proportional, so
// expected degrees follow the weights and the realized degree sequence is
// heavy-tailed. Unlike PowerLaw (preferential attachment) the edges are
// independent, which is the model scale benchmarks usually quote.
// Self-loops and duplicates are dropped by the builder, so the realized
// edge count is slightly below n·avgDeg/2.
func ChungLu(n int, beta float64, avgDeg int, seed uint64) *Graph {
	if n <= 0 {
		return Empty(0)
	}
	b := NewBuilder(n)
	b.Reserve(n * avgDeg / 2)
	ChungLuEdges(n, beta, avgDeg, seed, func(u, v int32) { b.AddEdge(u, v) })
	return b.Build()
}

// ChungLuEdges streams the Chung–Lu candidate edges of ChungLu(n, beta,
// avgDeg, seed) to emit, one at a time, without materializing an edge
// list. Emitted pairs may repeat and are not deduplicated; peak memory is
// the O(n) cumulative-weight table. The stream is deterministic in seed.
func ChungLuEdges(n int, beta float64, avgDeg int, seed uint64, emit func(u, v int32)) {
	if n <= 1 {
		return
	}
	if beta <= 1.01 {
		beta = 1.01
	}
	alpha := 1 / (beta - 1)
	cum := make([]float64, n+1)
	for v := 0; v < n; v++ {
		cum[v+1] = cum[v] + math.Pow(float64(v+1), -alpha)
	}
	s := rng.New(rng.Hash2(seed, 0xC1))
	m := n * avgDeg / 2
	for i := 0; i < m; i++ {
		u := pickWeighted(cum, s)
		v := pickWeighted(cum, s)
		if u != v {
			emit(u, v)
		}
	}
}

// pickWeighted draws a vertex with probability proportional to its weight
// via inverse-CDF binary search on the cumulative table.
func pickWeighted(cum []float64, s *rng.Stream) int32 {
	x := s.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum, x)
	if i > 0 {
		i--
	}
	if i > len(cum)-2 {
		i = len(cum) - 2
	}
	return int32(i)
}

// CliquesPlusMatching returns t disjoint cliques of size c whose node sets
// are additionally wired by a sparse random bipartite matching between
// consecutive cliques. This is the canonical "dense" workload: the ACD
// must recover the cliques as almost-cliques.
func CliquesPlusMatching(t, c int, seed uint64) *Graph {
	n := t * c
	b := NewBuilder(n)
	for q := 0; q < t; q++ {
		base := int32(q * c)
		for i := int32(0); i < int32(c); i++ {
			for j := i + 1; j < int32(c); j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	s := rng.New(rng.Hash2(seed, 0xC11))
	for q := 0; q+1 < t; q++ {
		// one random cross edge per adjacent clique pair
		u := int32(q*c) + int32(s.Intn(c))
		v := int32((q+1)*c) + int32(s.Intn(c))
		b.AddEdge(u, v)
	}
	return b.Build()
}

// NoisyClique returns a clique on c nodes with each edge removed with
// probability eps, embedded alongside fringe nodes each attached to a few
// clique members. Exercises the "almost"-clique part of the ACD and the
// outlier machinery.
func NoisyClique(c, fringe int, eps float64, seed uint64) *Graph {
	n := c + fringe
	b := NewBuilder(n)
	s := rng.New(rng.Hash2(seed, 0xA1C))
	for i := int32(0); i < int32(c); i++ {
		for j := i + 1; j < int32(c); j++ {
			if s.Float64() >= eps {
				b.AddEdge(i, j)
			}
		}
	}
	for f := 0; f < fringe; f++ {
		v := int32(c + f)
		for k := 0; k < 3; k++ {
			b.AddEdge(v, int32(s.Intn(c)))
		}
	}
	return b.Build()
}

// Caterpillar returns a path of length spine with legs pendant nodes
// attached to each spine node: a high-unevenness workload (spine nodes have
// much larger degree than leg nodes).
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	b := NewBuilder(n)
	for i := 0; i+1 < spine; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	next := int32(spine)
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(int32(i), next)
			next++
		}
	}
	return b.Build()
}

// Mixed returns the disjoint union of a Gnp block, a clique block, and a
// caterpillar block, joined by a handful of bridge edges. This is the E1
// "clique-mix" workload: it contains sparse, dense, and uneven regions at
// once, exercising all three ACD classes in a single instance.
func Mixed(n int, seed uint64) *Graph {
	third := n / 3
	gn := Gnp(third, 8/float64(maxInt(third, 9)), rng.Hash2(seed, 1))
	cl := CliquesPlusMatching(maxInt(third/24, 1), 24, rng.Hash2(seed, 2))
	ct := Caterpillar(maxInt(third/5, 1), 4)
	return DisjointUnion(gn, cl, ct)
}

// DisjointUnion concatenates the node sets of gs, then adds one bridge edge
// between consecutive blocks so the result is connected when the blocks are.
func DisjointUnion(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.N()
	}
	b := NewBuilder(total)
	base := int32(0)
	var prevBase int32 = -1
	for _, g := range gs {
		for u := int32(0); u < int32(g.N()); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					b.AddEdge(base+u, base+v)
				}
			}
		}
		if prevBase >= 0 && g.N() > 0 {
			b.AddEdge(prevBase, base)
		}
		if g.N() > 0 {
			prevBase = base
		}
		base += int32(g.N())
	}
	return b.Build()
}

// Named returns a generator by name for the CLIs; the supported names are
// documented in cmd/graphgen.
func Named(name string, n int, seed uint64) (*Graph, error) {
	switch name {
	case "gnp-sparse":
		return Gnp(n, 6/float64(maxInt(n, 7)), seed), nil
	case "gnp-dense":
		return Gnp(n, 0.3, seed), nil
	case "regular":
		return RandomRegular(n, 8, seed), nil
	case "powerlaw":
		return PowerLaw(n, 4, seed), nil
	case "chunglu":
		return ChungLu(n, 2.5, 8, seed), nil
	case "cliques":
		return CliquesPlusMatching(maxInt(n/32, 1), 32, seed), nil
	case "mixed":
		return Mixed(n, seed), nil
	case "caterpillar":
		return Caterpillar(maxInt(n/5, 1), 4), nil
	case "cycle":
		return Cycle(maxInt(n, 3)), nil
	case "complete":
		return Complete(n), nil
	default:
		return nil, fmt.Errorf("graph: unknown generator %q", name)
	}
}

// NamedArcs estimates the arc count (twice the edge count) of
// Named(name, n, seed) without building the graph, so that a caller can
// bound a request before materializing it: the expectation for the G(n,p)
// generators and an upper bound for the others. Unknown names are an
// error, as in Named.
func NamedArcs(name string, n int) (float64, error) {
	gnp := func(n int, p float64) float64 { return p * float64(n) * float64(n-1) }
	cliques := func(t, c int) float64 { return float64(t*c*(c-1) + 2*(t-1)) }
	caterpillar := func(spine, legs int) float64 { return float64(2 * (spine*(1+legs) - 1)) }
	switch name {
	case "gnp-sparse":
		return gnp(n, 6/float64(maxInt(n, 7))), nil
	case "gnp-dense":
		return gnp(n, 0.3), nil
	case "regular", "powerlaw", "chunglu":
		// 8 random matchings; 4 attachments per node; n·8/2 candidate edges.
		return 8 * float64(n), nil
	case "cliques":
		return cliques(maxInt(n/32, 1), 32), nil
	case "mixed":
		third := n / 3
		return gnp(third, 8/float64(maxInt(third, 9))) + cliques(maxInt(third/24, 1), 24) +
			caterpillar(maxInt(third/5, 1), 4) + 4, nil
	case "caterpillar":
		return caterpillar(maxInt(n/5, 1), 4), nil
	case "cycle":
		return 2 * float64(maxInt(n, 3)), nil
	case "complete":
		return float64(n) * float64(n-1), nil
	}
	return 0, fmt.Errorf("graph: unknown generator %q", name)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
