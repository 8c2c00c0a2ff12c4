// Package d1lc defines the (degree+1)-list-coloring problem: instances
// (a graph plus a color palette of size ≥ deg(v)+1 per node), colorings,
// verification, palette generators for the experiment workloads, and the
// self-reduction of Definition 11 that underpins the deferral mechanism of
// the derandomization framework.
package d1lc

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"parcolor/internal/graph"
	"parcolor/internal/rng"
)

// Uncolored is the color value of a node that has not been assigned yet.
const Uncolored int32 = -1

// Instance is a D1LC instance. Palettes are sorted ascending and duplicate
// free; Palettes[v] must have length ≥ g.Degree(v)+1 (checked by Check).
type Instance struct {
	G        *graph.Graph
	Palettes [][]int32
}

// N returns the number of nodes.
func (in *Instance) N() int { return in.G.N() }

// Check validates the D1LC invariants: one palette per node, sorted and
// duplicate-free, with |Ψ(v)| ≥ d(v)+1. A nil instance or one without a
// graph is an error, not a panic.
func (in *Instance) Check() error {
	if in == nil || in.G == nil {
		return errors.New("d1lc: nil instance or graph")
	}
	if len(in.Palettes) != in.G.N() {
		return fmt.Errorf("d1lc: %d palettes for %d nodes", len(in.Palettes), in.G.N())
	}
	for v := int32(0); v < int32(in.G.N()); v++ {
		p := in.Palettes[v]
		if len(p) < in.G.Degree(v)+1 {
			return fmt.Errorf("d1lc: node %d has palette %d < degree+1 = %d",
				v, len(p), in.G.Degree(v)+1)
		}
		for i := 1; i < len(p); i++ {
			if p[i-1] >= p[i] {
				return fmt.Errorf("d1lc: node %d palette not strictly sorted at %d", v, i)
			}
		}
	}
	return nil
}

// HasColor reports whether c is in v's palette (binary search).
func (in *Instance) HasColor(v int32, c int32) bool {
	p := in.Palettes[v]
	i := sort.Search(len(p), func(i int) bool { return p[i] >= c })
	return i < len(p) && p[i] == c
}

// Coloring is a (possibly partial) assignment: Colors[v] == Uncolored or a
// palette color of v.
type Coloring struct {
	Colors []int32
}

// NewColoring returns an all-uncolored coloring for n nodes.
func NewColoring(n int) *Coloring {
	c := &Coloring{Colors: make([]int32, n)}
	for i := range c.Colors {
		c.Colors[i] = Uncolored
	}
	return c
}

// Clone returns a deep copy.
func (c *Coloring) Clone() *Coloring {
	return &Coloring{Colors: append([]int32(nil), c.Colors...)}
}

// UncoloredCount returns the number of uncolored nodes.
func (c *Coloring) UncoloredCount() int {
	n := 0
	for _, x := range c.Colors {
		if x == Uncolored {
			n++
		}
	}
	return n
}

// Verify checks that col is a complete proper list coloring of in: every
// node colored, every color from the node's palette, no monochromatic edge.
// A nil error is the ground truth of every solver test in the repository.
func Verify(in *Instance, col *Coloring) error {
	return VerifyPartial(in, col, true)
}

// VerifyPartial checks properness (palette membership and no monochromatic
// edge among colored nodes); if complete is true it additionally requires
// every node to be colored.
func VerifyPartial(in *Instance, col *Coloring, complete bool) error {
	if len(col.Colors) != in.G.N() {
		return fmt.Errorf("d1lc: coloring has %d entries for %d nodes", len(col.Colors), in.G.N())
	}
	for v := int32(0); v < int32(in.G.N()); v++ {
		c := col.Colors[v]
		if c == Uncolored {
			if complete {
				return fmt.Errorf("d1lc: node %d uncolored", v)
			}
			continue
		}
		if !in.HasColor(v, c) {
			return fmt.Errorf("d1lc: node %d colored %d outside its palette", v, c)
		}
		for _, u := range in.G.Neighbors(v) {
			if u > v && col.Colors[u] == c {
				return fmt.Errorf("d1lc: monochromatic edge %d-%d color %d", v, u, c)
			}
		}
	}
	return nil
}

// Slack returns p(v) − d(v) for the *initial* instance; for residual slack
// during a run use State in the hknt package.
func (in *Instance) Slack(v int32) int {
	return len(in.Palettes[v]) - in.G.Degree(v)
}

// --- Palette generators -------------------------------------------------

// TrivialPalettes assigns each node the palette {0, …, d(v)}: the minimum
// legal D1LC instance, and the hardest for slack generation since initial
// slack is exactly 1 everywhere.
func TrivialPalettes(g *graph.Graph) *Instance {
	pal := make([][]int32, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		d := g.Degree(v)
		p := make([]int32, d+1)
		for i := range p {
			p[i] = int32(i)
		}
		pal[v] = p
	}
	return &Instance{G: g, Palettes: pal}
}

// DeltaPlus1Palettes assigns every node the palette {0,…,Δ}: the classical
// (Δ+1)-coloring problem expressed as D1LC.
func DeltaPlus1Palettes(g *graph.Graph) *Instance {
	delta := g.MaxDegree()
	shared := make([]int32, delta+1)
	for i := range shared {
		shared[i] = int32(i)
	}
	pal := make([][]int32, g.N())
	for v := range pal {
		pal[v] = shared
	}
	return &Instance{G: g, Palettes: pal}
}

// RandomPalettes draws, for each node, a uniform random (d(v)+1+extra)-
// subset of a color universe of the given size. universe must be at least
// Δ+1+extra. This produces the palette disparity that drives the
// discrepancy/unevenness machinery of Definition 2.
func RandomPalettes(g *graph.Graph, extra int, universe int, seed uint64) *Instance {
	if need := g.MaxDegree() + 1 + extra; universe < need {
		universe = need
	}
	pal := make([][]int32, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		k := g.Degree(v) + 1 + extra
		pal[v] = randomSubset(universe, k, rng.At(seed, uint64(v)))
	}
	return &Instance{G: g, Palettes: pal}
}

// ShiftedPalettes gives node v the palette {off(v), …, off(v)+d(v)} where
// off(v) cycles over blockCount offsets of width blockWidth: adjacent nodes
// often have nearly disjoint palettes, the easy extreme for disparity.
func ShiftedPalettes(g *graph.Graph, blockCount, blockWidth int) *Instance {
	if blockCount < 1 {
		blockCount = 1
	}
	pal := make([][]int32, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		off := int32(int(v) % blockCount * blockWidth)
		d := g.Degree(v)
		p := make([]int32, d+1)
		for i := range p {
			p[i] = off + int32(i)
		}
		pal[v] = p
	}
	return &Instance{G: g, Palettes: pal}
}

// randomSubset returns a sorted uniform k-subset of [0, universe).
func randomSubset(universe, k int, s *rng.Stream) []int32 {
	if k >= universe {
		all := make([]int32, universe)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	// Floyd's algorithm.
	chosen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for j := universe - k; j < universe; j++ {
		t := int32(s.Intn(j + 1))
		if chosen[t] {
			t = int32(j)
		}
		chosen[t] = true
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// --- Self-reduction (Definition 11) --------------------------------------
//
// ReduceArena (arena.go) builds the residual instance on a set of
// uncolored nodes. The merge walks below are shared with GreedyComplete.

// gatherBlocked appends the colors of v's colored neighbors to buf and
// returns it sorted (duplicates kept — the merge walks tolerate them).
func gatherBlocked(neighbors []int32, col *Coloring, buf []int32) []int32 {
	for _, u := range neighbors {
		if c := col.Colors[u]; c != Uncolored {
			buf = append(buf, c)
		}
	}
	slices.Sort(buf)
	return buf
}

// subtractSorted appends to dst the values of palette (strictly sorted
// ascending) not present in blocked (sorted ascending, duplicates
// allowed) and returns dst. One merge walk, no lookups.
func subtractSorted(dst, palette, blocked []int32) []int32 {
	j := 0
	for _, c := range palette {
		for j < len(blocked) && blocked[j] < c {
			j++
		}
		if j == len(blocked) || blocked[j] != c {
			dst = append(dst, c)
		}
	}
	return dst
}

// FirstFreeColor returns the smallest color of palette (strictly sorted
// ascending) not present in blocked (sorted ascending, duplicates
// allowed), or Uncolored if every palette color is blocked. This is the
// greedy color choice shared by GreedyComplete and the classical
// baseline engines (Jones–Plassmann, Luby coloring).
func FirstFreeColor(palette, blocked []int32) int32 {
	j := 0
	for _, c := range palette {
		for j < len(blocked) && blocked[j] < c {
			j++
		}
		if j == len(blocked) || blocked[j] != c {
			return c
		}
	}
	return Uncolored
}

// Apply writes a residual coloring back into the original coloring through
// the origOf map that ReduceArena's reductions return.
func Apply(col *Coloring, residual *Coloring, origOf []int32) {
	for i, c := range residual.Colors {
		if c != Uncolored {
			col.Colors[origOf[i]] = c
		}
	}
}

// GreedyComplete colors every remaining uncolored node of col sequentially
// with its smallest available palette color. For a valid D1LC residual this
// always succeeds (a node has at most d(v) blocked colors and d(v)+1
// palette colors). Solves finish with hknt.FinishGreedy instead; tests of
// this package and of sparsify use this one to complete partial colorings.
func GreedyComplete(in *Instance, col *Coloring) error {
	var blocked []int32
	for v := int32(0); v < int32(in.G.N()); v++ {
		if col.Colors[v] != Uncolored {
			continue
		}
		blocked = gatherBlocked(in.G.Neighbors(v), col, blocked[:0])
		c := FirstFreeColor(in.Palettes[v], blocked)
		if c == Uncolored {
			return fmt.Errorf("d1lc: greedy found no color for node %d (invalid instance)", v)
		}
		col.Colors[v] = c
	}
	return nil
}
