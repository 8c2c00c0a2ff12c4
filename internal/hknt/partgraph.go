package hknt

import (
	"parcolor/internal/bitset"
	"parcolor/internal/graph"
)

// PartGraph is the subgraph a step's participants induce: for the i-th
// participant, its neighbours that are participants too, in global ids
// and adjacency order. Only a participant draws a candidate in
// TryRandomColor, GenerateSlack and MultiTrial, so a non-participant
// neighbour can never conflict with one, and a conflict pass over the
// participant arcs alone makes the same proposal as one over every arc
// of the participants. A seed walk builds one per step and binds it to
// each Scratch it proposes on (Scratch.Bind); the list must not change
// while a Scratch is bound to it.
type PartGraph struct {
	parts []int32 // the participant list the rows follow
	offs  []int32 // participant i's row is adj[offs[i]:offs[i+1]]
	adj   []int32
}

// NewPartGraph builds the subgraph parts induces in g, in
// O(n/64 + the participants' summed degree): one pass sizes the rows, a
// second fills them.
func NewPartGraph(g *graph.Graph, parts []int32) *PartGraph {
	in := bitset.New(g.N())
	for _, v := range parts {
		in.Set(int(v))
	}
	offs := make([]int32, len(parts)+1)
	for i, v := range parts {
		offs[i+1] = offs[i]
		for _, u := range g.Neighbors(v) {
			if in.Test(int(u)) {
				offs[i+1]++
			}
		}
	}
	adj := make([]int32, 0, offs[len(parts)])
	for _, v := range parts {
		for _, u := range g.Neighbors(v) {
			if in.Test(int(u)) {
				adj = append(adj, u)
			}
		}
	}
	return &PartGraph{parts: parts, offs: offs, adj: adj}
}

// neighbors returns the nodes participant i (node v) can conflict with:
// its row on a PartGraph, every neighbour of v on a nil one.
func (pg *PartGraph) neighbors(g *graph.Graph, i int, v int32) []int32 {
	if pg == nil {
		return g.Neighbors(v)
	}
	return pg.adj[pg.offs[i]:pg.offs[i+1]]
}
