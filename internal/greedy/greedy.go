// Package greedy provides the sequential baselines the experiment tables
// compare against: greedy list coloring in index or degeneracy order. For a
// valid D1LC instance greedy always succeeds, so these double as
// correctness oracles.
package greedy

import (
	"fmt"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

// Order names a vertex ordering.
type Order int

// Available orders.
const (
	// ByID colors nodes in index order.
	ByID Order = iota
	// ByDegeneracy colors in reverse degeneracy order, guaranteeing at
	// most degeneracy+1 distinct colors — the classical quality baseline.
	ByDegeneracy
)

func (o Order) String() string {
	switch o {
	case ByID:
		return "id"
	case ByDegeneracy:
		return "degeneracy"
	}
	return "?"
}

// Color greedily colors the instance in the given order, assigning each
// node its first free palette color.
func Color(in *d1lc.Instance, order Order) (*d1lc.Coloring, error) {
	n := in.G.N()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if order == ByDegeneracy {
		order, _ := graph.DegeneracyOrder(in.G)
		for i, v := range order {
			perm[len(order)-1-i] = v
		}
	}
	col := d1lc.NewColoring(n)
	for _, v := range perm {
		blocked := map[int32]bool{}
		for _, u := range in.G.Neighbors(v) {
			if c := col.Colors[u]; c != d1lc.Uncolored {
				blocked[c] = true
			}
		}
		assigned := false
		for _, c := range in.Palettes[v] {
			if !blocked[c] {
				col.Colors[v] = c
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, fmt.Errorf("greedy: no free color for node %d (invalid instance)", v)
		}
	}
	return col, nil
}

// DistinctColors counts the number of distinct colors a coloring uses —
// the quality metric reported next to round counts.
func DistinctColors(col *d1lc.Coloring) int {
	seen := map[int32]bool{}
	for _, c := range col.Colors {
		if c != d1lc.Uncolored {
			seen[c] = true
		}
	}
	return len(seen)
}
