// Package sparsify implements Section 6 of the paper: the deterministic
// recursive degree reduction LowSpaceColorReduce (Algorithm 11) built on
// LowSpacePartition (Algorithm 12), with the Lemma 23 guarantees
//
//	(a) every partitioned node v gets d′(v) < 2·d(v)/bins, and
//	(b) every node keeps d′(v) < p′(v),
//
// established deterministically. Hash functions are drawn from explicit
// pairwise families and selected deterministically; nodes violating the
// per-node properties under the selected hashes are moved to the catch-all
// instance (which D1LC self-reducibility always keeps valid), so the
// output partition satisfies Lemma 23's properties *by construction* —
// the self-certifying variant of [CDP21d]'s conditional-expectation
// selection. The GF2 strategy additionally demonstrates the
// exactly-computable bit-by-bit conditional expectation on the
// monochromatic-edge estimator.
//
// # Parallel bin schedule (Algorithm 11 line 2)
//
// Restricted bins 0..Bins−2 are solved concurrently: their palettes are
// disjoint color classes (ColorBin partitions the color space), so two
// nodes in different restricted bins can never conflict no matter how
// their sub-solves interleave, and no restricted bin reads the shared
// coloring — each writes only its own nodes' entries. The solve's worker
// budget is divided across the bins with par.Runner.Split, the catch-all
// bin and G_mid retain their sequential ordering after a barrier (they
// self-reduce against committed colors), and per-bin reports are merged
// in bin-index order, so colorings and reports are the same at every
// worker count.
//
// # One-pass bucketing and arena extraction
//
// Each level buckets all nodes by NodeBin with one counting-sort pass
// (ascending, duplicate-free per-bin lists) instead of one O(n) scan per
// bin, and extracts sub-instances through reused arenas: the bin CSR
// comes from a graph.SubgraphArena (stamp-array relabeling, no per-arc
// binary search) and restricted palettes are carved from one flat slab
// with per-node upper-bound slots, so the parallel fill writes disjoint
// ranges and allocates nothing per node. d′(v) is computed once per
// partition in a parallel neighbor pass over node ranges of equal arc
// count (graph.ArcRanges) and reused across the color-seed search,
// property enforcement and the Lemma 23(a) certificate, instead of being
// recomputed per seed try. Property enforcement is itself
// parallel and uses the pre-move d′: it flags a (deterministic) superset
// of the nodes a live sequential sweep would move, and every kept node's
// certificate still holds because moves only ever decrease d′.
package sparsify

import (
	"fmt"
	"math"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hashfam"
	"parcolor/internal/par"
	"parcolor/internal/trace"
)

// Strategy selects how node/color hash functions are chosen.
type Strategy int

// Available strategies.
const (
	// SeedSearch tries pairwise polynomial hashes in a fixed seed order
	// and keeps the first satisfying the per-node properties for the
	// largest node count (deterministic; default).
	SeedSearch Strategy = iota
	// GF2CondExp builds the node partition from log₂(bins) binary splits,
	// each chosen by exact bit-by-bit conditional expectations on the
	// number of monochromatic edges (then verifies per-node properties).
	GF2CondExp
	// RandomOnce uses seed 0 without search: the randomized baseline for
	// experiment E4.
	RandomOnce
)

func (s Strategy) String() string {
	switch s {
	case SeedSearch:
		return "seed-search"
	case GF2CondExp:
		return "gf2-condexp"
	case RandomOnce:
		return "random-once"
	}
	return "?"
}

// Options configures partitioning and recursion.
type Options struct {
	// Bins is the number of node bins per partition level (the paper's
	// n^δ). Default: max(2, ⌈n^{1/4}⌉) capped at 16.
	Bins int
	// MidDegree: nodes with degree ≤ this go to the catch-all G_mid, left
	// for the base solver (the paper's n^{7δ}). Default 8·Bins.
	MidDegree int
	// Strategy selects hash choice.
	Strategy Strategy
	// Par scopes the hash-search parallel loops to an explicit worker
	// budget; ColorReduce derives a context-carrying copy from its ctx
	// argument, and checks it between bins and recursion levels. nil means
	// the process default.
	Par *par.Runner
	// Trace observes one phase per partition computed plus one span per
	// bin solved (phase "bin", round = bin id, participants = sub-instance
	// size). nil disables tracing.
	Trace trace.Tracer
}

func (o Options) withDefaults(n int) Options {
	if o.Bins == 0 {
		b := int(math.Ceil(math.Pow(float64(n+1), 0.25)))
		if b < 2 {
			b = 2
		}
		if b > 16 {
			b = 16
		}
		o.Bins = b
	}
	if o.MidDegree == 0 {
		o.MidDegree = 8 * o.Bins
	}
	return o
}

// maxSeedTries bounds each hash-seed search.
const maxSeedTries = 64

// maxDepth bounds the recursion (the paper's depth is O(1)).
const maxDepth = 4

// Partition is the result of one LowSpacePartition call.
type Partition struct {
	Bins int
	// NodeBin[v] ∈ [0, Bins) for partitioned nodes, or −1 for G_mid
	// members (low-degree nodes plus property violators).
	NodeBin []int32
	// ColorBin maps a color to a bin in [0, Bins−1) — bins 0..Bins−2 get
	// restricted palettes; the last node bin (Bins−1) keeps unrestricted
	// palettes and is solved after the others (Algorithm 11 line 3).
	ColorBin func(c int32) int
	// MovedToMid counts property violators relocated to G_mid.
	MovedToMid int
	// NodeSeed/ColorSeed record the selected hash seeds.
	NodeSeed, ColorSeed uint64
	Strategy            Strategy
	// SameBinDeg[v] is d′(v) under the final bins (property violators
	// already moved), computed in one parallel neighbor pass and reused by
	// the Lemma 23(a) certificate and the solve schedule. SameBinDegree
	// recomputes the same value from scratch; tests pin them equal.
	SameBinDeg []int32
}

// SameBinDegree returns d′(v): v's neighbors in the same bin.
func (p *Partition) SameBinDegree(g *graph.Graph, v int32) int {
	b := p.NodeBin[v]
	if b < 0 {
		return 0
	}
	d := 0
	for _, u := range g.Neighbors(v) {
		if p.NodeBin[u] == b {
			d++
		}
	}
	return d
}

// restrictedPaletteLen returns |p′(v)|, the size of the palette v keeps
// inside its bin, without materializing it: the property checks only need
// the count.
func (p *Partition) restrictedPaletteLen(in *d1lc.Instance, v int32) int {
	b := p.NodeBin[v]
	if b < 0 || int(b) == p.Bins-1 {
		return len(in.Palettes[v])
	}
	n := 0
	for _, c := range in.Palettes[v] {
		if p.ColorBin(c) == int(b) {
			n++
		}
	}
	return n
}

// appendRestrictedPalette appends p′(v)'s colors — the palette v keeps
// inside its bin — to dst and returns it: the slab-backed extraction
// fills preallocated slots with it instead of allocating one slice per
// node. For G_mid and catch-all members the full palette is appended
// (callers on those paths alias the parent palette instead).
func (p *Partition) appendRestrictedPalette(dst []int32, in *d1lc.Instance, v int32) []int32 {
	b := p.NodeBin[v]
	if b < 0 || int(b) == p.Bins-1 {
		return append(dst, in.Palettes[v]...)
	}
	for _, c := range in.Palettes[v] {
		if p.ColorBin(c) == int(b) {
			dst = append(dst, c)
		}
	}
	return dst
}

// Compute runs LowSpacePartition (Algorithm 12) with deterministic hash
// selection and property enforcement.
func Compute(in *d1lc.Instance, o Options) (*Partition, error) {
	g := in.G
	n := g.N()
	o = o.withDefaults(n)
	if o.Bins < 2 {
		return nil, fmt.Errorf("sparsify: need ≥2 bins, got %d", o.Bins)
	}
	part := &Partition{Bins: o.Bins, NodeBin: make([]int32, n), Strategy: o.Strategy}

	// G_mid: low-degree nodes (Algorithm 12 line 1).
	highDeg := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) <= o.MidDegree {
			part.NodeBin[v] = -1
		} else {
			highDeg = append(highDeg, v)
		}
	}

	// Node bins.
	switch o.Strategy {
	case GF2CondExp:
		assignGF2(part, g, highDeg, o)
	case RandomOnce:
		h := hashfam.NewPoly(seedWords(0, 2))
		for _, v := range highDeg {
			part.NodeBin[v] = int32(h.Bin(uint64(v)+1, o.Bins))
		}
	default: // SeedSearch
		part.NodeSeed = searchNodeSeed(part, g, highDeg, o)
		h := hashfam.NewPoly(seedWords(part.NodeSeed, 2))
		for _, v := range highDeg {
			part.NodeBin[v] = int32(h.Bin(uint64(v)+1, o.Bins))
		}
	}

	// d′ under the chosen node bins: one parallel neighbor pass, reused by
	// the color-seed search and property enforcement below instead of
	// being recomputed per node per seed try.
	sbd := sameBinDegrees(g, part.NodeBin, o.Par)

	// Color bins: pairwise polynomial hash over colors, seed chosen to
	// maximize the number of nodes keeping p′(v) > d′(v). (GF2 may have
	// rounded Bins up to a power of two; use the effective count.)
	part.ColorSeed = searchColorSeed(in, part, highDeg, sbd, o)
	ch := hashfam.NewPoly(seedWords(part.ColorSeed, 2))
	colorBins := part.Bins - 1
	part.ColorBin = func(c int32) int { return ch.Bin(uint64(c)+1, colorBins) }

	// Enforce Lemma 23 per-node properties in parallel; violators move to
	// G_mid. Every node is checked against its pre-move d′, so the pass is
	// independent of iteration order: it moves a deterministic superset of
	// the nodes a live sequential sweep would move, and once the moves
	// land each kept node's certificate holds a fortiori (removing
	// neighbors from a bin only decreases d′). Workers write disjoint
	// NodeBin entries and the violation count folds in chunk order.
	part.MovedToMid = int(o.Par.ReduceInt(len(highDeg), func(i int) int64 {
		v := highDeg[i]
		if part.NodeBin[v] < 0 {
			return 0
		}
		if !propertiesHoldPre(in, part, v, int(sbd[v])) {
			part.NodeBin[v] = -1
			return 1
		}
		return 0
	}))
	// Publish the post-move d′ for the certificate and the bin schedule.
	part.SameBinDeg = sameBinDegrees(g, part.NodeBin, o.Par)
	return part, nil
}

// sameBinDegrees computes d′(v) for every node in one parallel neighbor
// pass (G_mid members get 0), over node ranges of about equal arc count
// (graph.ArcRanges): a node's cost is its degree.
func sameBinDegrees(g *graph.Graph, nodeBin []int32, r *par.Runner) []int32 {
	out := make([]int32, g.N())
	r.ForRanges(graph.ArcRanges(r, g), func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			b := nodeBin[v]
			if b < 0 {
				continue
			}
			d := int32(0)
			for _, u := range g.Neighbors(v) {
				if nodeBin[u] == b {
					d++
				}
			}
			out[v] = d
		}
	})
	return out
}

// propertiesHoldPre checks Lemma 23 for one node against a precomputed
// d′: d′(v) < max(2·d(v)/bins, 1) and d′(v) < p′(v). The palette side
// counts the restricted palette without materializing it.
func propertiesHoldPre(in *d1lc.Instance, part *Partition, v int32, dPrime int) bool {
	d := in.G.Degree(v)
	bound := 2 * float64(d) / float64(part.Bins)
	if float64(dPrime) >= math.Max(bound, 1) {
		return false
	}
	return dPrime < part.restrictedPaletteLen(in, v)
}

// searchNodeSeed tries seeds in order and keeps the one minimizing the
// number of per-node degree-property violations (deterministic; stops
// early on zero violations).
func searchNodeSeed(part *Partition, g *graph.Graph, highDeg []int32, o Options) uint64 {
	bestSeed, bestViol := uint64(0), math.MaxInt
	binOf := make([]int32, len(part.NodeBin))
	for seed := uint64(0); seed < maxSeedTries; seed++ {
		if o.Par.Err() != nil {
			break // cancelled: the caller discards the partition
		}
		h := hashfam.NewPoly(seedWords(seed, 2))
		copy(binOf, part.NodeBin)
		for _, v := range highDeg {
			binOf[v] = int32(h.Bin(uint64(v)+1, o.Bins))
		}
		viol := int(o.Par.ReduceInt(len(highDeg), func(i int) int64 {
			v := highDeg[i]
			d := g.Degree(v)
			dPrime := 0
			for _, u := range g.Neighbors(v) {
				if binOf[u] == binOf[v] {
					dPrime++
				}
			}
			if float64(dPrime) >= math.Max(2*float64(d)/float64(o.Bins), 1) {
				return 1
			}
			return 0
		}))
		if viol < bestViol {
			bestViol, bestSeed = viol, seed
			if viol == 0 {
				break
			}
		}
	}
	return bestSeed
}

// searchColorSeed picks the color-hash seed minimizing palette-property
// violations given the node bins already in part.NodeBin. sbd carries
// the precomputed d′ per node — it is seed-invariant (only node bins
// determine it), so it is hoisted out of the per-seed loop instead of
// being recomputed up to maxSeedTries times per node.
func searchColorSeed(in *d1lc.Instance, part *Partition, highDeg []int32, sbd []int32, o Options) uint64 {
	colorBins := part.Bins - 1
	bestSeed, bestViol := uint64(0), math.MaxInt
	for seed := uint64(0); seed < maxSeedTries; seed++ {
		if o.Par.Err() != nil {
			break // cancelled: the caller discards the partition
		}
		h := hashfam.NewPoly(seedWords(seed, 2))
		viol := int(o.Par.ReduceInt(len(highDeg), func(i int) int64 {
			v := highDeg[i]
			b := part.NodeBin[v]
			if b < 0 || int(b) == part.Bins-1 {
				return 0
			}
			dPrime := int(sbd[v])
			pPrime := 0
			for _, c := range in.Palettes[v] {
				if h.Bin(uint64(c)+1, colorBins) == int(b) {
					pPrime++
				}
			}
			if dPrime >= pPrime {
				return 1
			}
			return 0
		}))
		if viol < bestViol {
			bestViol, bestSeed = viol, seed
			if viol == 0 {
				break
			}
		}
	}
	return bestSeed
}

// assignGF2 builds node bins from log₂(bins) GF(2)-linear splits, each
// selected by exact bit-by-bit conditional expectations on the number of
// monochromatic (same-side) edges among high-degree nodes — the estimator
// is a sum of hashfam.CollisionProb terms, each exactly 0, 1 or 1/2, so
// the greedy bit choice is the textbook method of conditional
// expectations with zero estimation error.
func assignGF2(part *Partition, g *graph.Graph, highDeg []int32, o Options) {
	levels := 0
	for 1<<levels < o.Bins {
		levels++
	}
	part.Bins = 1 << levels
	isHigh := make([]bool, g.N())
	for _, v := range highDeg {
		isHigh[v] = true
		part.NodeBin[v] = 0
	}
	// Collect high-high edges once.
	var edges [][2]int32
	for _, v := range highDeg {
		for _, u := range g.Neighbors(v) {
			if u > v && isHigh[u] {
				edges = append(edges, [2]int32{v, u})
			}
		}
	}
	for lvl := 0; lvl < levels; lvl++ {
		a := selectGF2Seed(edges, part.NodeBin)
		h := hashfam.GF2Linear{A: a}
		for _, v := range highDeg {
			part.NodeBin[v] = part.NodeBin[v]<<1 | int32(h.Bit(uint64(v)+1))
		}
	}
}

// selectGF2Seed chooses the 64 bits of the GF(2)-linear multiplier one bit
// at a time: at each position, the exact conditional expectation of
// monochromatic edges (among edges whose endpoints share a current bin) is
// computed for both choices and the smaller kept. Only edges currently in
// the same bin matter; the expectation is Σ CollisionProb.
func selectGF2Seed(edges [][2]int32, curBin []int32) uint64 {
	active := make([][2]uint64, 0, len(edges))
	for _, e := range edges {
		if curBin[e[0]] == curBin[e[1]] {
			active = append(active, [2]uint64{uint64(e[0]) + 1, uint64(e[1]) + 1})
		}
	}
	var a uint64
	for bit := uint(0); bit < 64; bit++ {
		// Conditional expectation with this bit = 0 vs 1, later bits random.
		var num0, num1 int64 // expectations scaled by 2
		for _, e := range active {
			n0, d0 := hashfam.CollisionProb(e[0], e[1], a, bit+1)
			n1, d1 := hashfam.CollisionProb(e[0], e[1], a|1<<bit, bit+1)
			num0 += int64(n0 * (2 / d0))
			num1 += int64(n1 * (2 / d1))
		}
		if num1 < num0 {
			a |= 1 << bit
		}
	}
	return a
}

// seedWords expands a small seed into k coefficient words.
func seedWords(seed uint64, k int) []uint64 {
	out := make([]uint64, k)
	x := seed*0x9E3779B97F4A7C15 + 0xDEADBEEF
	for i := range out {
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		out[i] = x
		x += 0x632BE59BD9B4E019
	}
	return out
}
