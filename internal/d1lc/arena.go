package d1lc

import (
	"sync"

	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// ReduceArena amortizes self-reduction (Definition 11) across calls: the
// induced-subgraph extraction rides a graph.SubgraphArena and the shrunk
// palettes are carved out of one flat reused slab instead of one
// allocation per node. A recursion that reduces once per level — the
// deframe residue loop, the sparsify bin solve — performs no steady-state
// allocation on this path.
//
// The returned instance aliases arena storage: it is valid until the next
// reduction on the same arena, and the arena must not be reused or
// released while the instance (or the coloring write-back through its
// origOf) is still pending. Arenas are not safe for concurrent use; give
// each concurrent reduction its own arena.
type ReduceArena struct {
	sub     *graph.SubgraphArena
	nodes   []int32   // reused keep list for ReduceUncolored
	pals    [][]int32 // reused palette headers
	offsets []int32   // slab slot boundaries, len k+1
	slab    []int32   // flat palette storage
}

// reduceArenas recycles arenas across reductions and solves; sparsify and
// deframe share it.
var reduceArenas = sync.Pool{New: func() any {
	return &ReduceArena{sub: graph.NewSubgraphArena()}
}}

// NewReduceArena returns an arena from the package pool; buffers grow on
// first use.
func NewReduceArena() *ReduceArena { return reduceArenas.Get().(*ReduceArena) }

// Release returns the arena to the package pool once the instance of its
// last reduction, and the coloring write-back through its origOf, are
// done. The caller must not use a afterwards.
func (a *ReduceArena) Release() { reduceArenas.Put(a) }

// ReducePar is the arena counterpart of the package-level ReducePar.
// nodes must be sorted ascending and duplicate-free (the uncolored scan
// and the bin bucketing both produce exactly that; the underlying
// extraction panics otherwise). Each node's slab slot is sized by its
// parent palette — an upper bound on the shrunk palette — with exclusive
// prefix offsets, so the parallel fill writes disjoint ranges and the
// result is bit-identical to the allocating path for any worker count.
func (a *ReduceArena) ReducePar(r *par.Runner, in *Instance, col *Coloring, nodes []int32) (res *Instance, origOf []int32) {
	sub, origOf := a.sub.Extract(r, in.G, nodes)
	k := len(origOf)
	if cap(a.offsets) < k+1 {
		a.offsets = make([]int32, k+1)
	}
	offsets := a.offsets[:k+1]
	offsets[0] = 0
	for i := 0; i < k; i++ {
		offsets[i+1] = offsets[i] + int32(len(in.Palettes[origOf[i]]))
	}
	if cap(a.slab) < int(offsets[k]) {
		a.slab = make([]int32, int(offsets[k]))
	}
	slab := a.slab[:cap(a.slab)]
	if cap(a.pals) < k {
		a.pals = make([][]int32, k)
	}
	pals := a.pals[:k]
	r.ForChunked(k, func(lo, hi int) {
		var blocked []int32
		for i := lo; i < hi; i++ {
			v := origOf[i]
			blocked = gatherBlocked(in.G.Neighbors(v), col, blocked[:0])
			slot := slab[offsets[i]:offsets[i]:offsets[i+1]]
			pals[i] = subtractSorted(slot, in.Palettes[v], blocked)
		}
	})
	return &Instance{G: sub, Palettes: pals}, origOf
}

// ReduceUncolored is ReduceUncoloredPar on the arena: the keep list is
// gathered into reused storage (ascending by construction) and the
// reduction follows ReducePar above.
func (a *ReduceArena) ReduceUncolored(r *par.Runner, in *Instance, col *Coloring) (res *Instance, origOf []int32) {
	nodes := a.nodes[:0]
	for v := int32(0); v < int32(in.G.N()); v++ {
		if col.Colors[v] == Uncolored {
			nodes = append(nodes, v)
		}
	}
	a.nodes = nodes
	return a.ReducePar(r, in, col, nodes)
}
