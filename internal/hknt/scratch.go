package hknt

import (
	"parcolor/internal/bitset"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// Scratch carries caller-owned buffers reused across repeated trial
// evaluations — the derandomizer's seed-scoring loop runs every Propose
// hundreds to thousands of times against identical state, and without reuse
// each run allocates candidate arrays, proposals and sample sets afresh.
//
// Per-seed cost contract: a Propose handed a Scratch does work
// proportional to the nodes it may write (its participants, or the
// inliers of its cliques), their arcs and the random bits it reads, never
// to the instance size n. Bound to its step's PartGraph (Bind), a
// TryRandomColor, GenerateSlack or MultiTrial Propose reads only the
// participant arcs among those arcs; the clique trials and the scoring
// (PostStats) still read all of them. Every node-indexed buffer
// (candidates, proposal colors, win and mark masks, MultiTrial's sample
// sets, PutAside's sample flags) stays clean — Uncolored, nil, false or
// a zero bit — across its whole capacity except at the nodes the
// previous Propose recorded as written. The next Propose resets exactly
// those entries before it writes, and derives its win and mark masks
// from its own written nodes instead of a pass over all n. One Scratch
// may serve instances of any size, in any order. Under a lazy PRG source (prg.LazySource) the bits a Propose reads
// are also the only PRG bits computed for it: the Scratch's per-worker
// cursors compute each chunk's bits as the draws reach them, so a seed
// pays for the bits its draws read, not for the step's declared budget.
//
// Ownership contract: a Proposal returned by a scratch-aware Propose
// aliases the Scratch's buffers and is invalidated by the next Propose on
// the same Scratch. One Scratch must never serve two concurrent Propose
// calls; the trials' own inner parallel loops are safe because distinct
// nodes touch distinct entries of the shared buffers.
//
// A nil *Scratch is valid everywhere and means "allocate fresh": every
// Propose builds clean n-sized buffers and derives its masks from a pass
// over all n nodes — the original allocation-per-call behavior, kept as
// the reference the Scratch path is tested against (a missed reset or a
// write outside the recorded nodes shows up as a difference).
type Scratch struct {
	cand  []int32     // candidate colors; clean: Uncolored
	color []int32     // proposal colors; clean: Uncolored
	win   bitset.Mask // proposal win mask; clean: zero
	mark  bitset.Mask // proposal mark mask; clean: zero
	sets  [][]int32   // MultiTrial sample sets; clean: nil
	flags []bool      // PutAside sample flags; clean: false
	// written lists the nodes whose entries the last Propose may have set.
	written []int32
	// nodes and offs hold a clique trial's per-clique node runs.
	nodes, offs []int32

	maps    []map[int32]bool
	arenas  [][]int32
	palBufs [][]int32
	curs    []*rng.Bits

	// part is the bound participant graph, or nil.
	part *PartGraph
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Bind binds sc to a step's participant graph, or unbinds it (nil). A
// bound TryRandomColor, GenerateSlack or MultiTrial Propose whose parts
// is the very slice pg was built from scans only participant neighbours
// in its conflict pass; handed any other slice, it scans every
// neighbour. Unbind a Scratch before pooling it, so the pool keeps no
// finished step's graph.
func (sc *Scratch) Bind(pg *PartGraph) { sc.part = pg }

// partGraph returns the bound participant graph when parts is the slice
// it was built from (same first element and length), else nil: the full
// neighbour scan. Nil on a nil Scratch.
func (sc *Scratch) partGraph(parts []int32) *PartGraph {
	if sc == nil || sc.part == nil || len(parts) == 0 {
		return nil
	}
	if bound := sc.part.parts; len(bound) != len(parts) || &bound[0] != &parts[0] {
		return nil
	}
	return sc.part
}

// claim resets every buffer entry the previous Propose on sc wrote and
// records nodes as the ones this Propose may write. It must precede the
// Propose's first write. No-op on a nil Scratch.
func (sc *Scratch) claim(nodes []int32) {
	if sc == nil {
		return
	}
	for _, v := range sc.written {
		i := int(v)
		if i < len(sc.cand) {
			sc.cand[i] = d1lc.Uncolored
		}
		if i < len(sc.color) {
			sc.color[i] = d1lc.Uncolored
		}
		if i>>6 < len(sc.win) {
			sc.win.Clear(i)
		}
		if i>>6 < len(sc.mark) {
			sc.mark.Clear(i)
		}
		if i < len(sc.sets) {
			sc.sets[i] = nil
		}
		if i < len(sc.flags) {
			sc.flags[i] = false
		}
	}
	sc.written = append(sc.written[:0], nodes...)
}

// uncolored returns buf if it holds n entries, else a fresh all-Uncolored
// buffer of n.
func uncolored(buf []int32, n int) []int32 {
	if len(buf) >= n {
		return buf
	}
	buf = make([]int32, n)
	for i := range buf {
		buf[i] = d1lc.Uncolored
	}
	return buf
}

// zeroed returns buf if it holds n entries, else a fresh zeroed buffer of
// n (a zero value is the clean state of sample sets and flags).
func zeroed[T any](buf []T, n int) []T {
	if len(buf) >= n {
		return buf
	}
	return make([]T, n)
}

// zeroMask returns m if it holds n bits, else a fresh zeroed mask.
func zeroMask(m bitset.Mask, n int) bitset.Mask {
	if len(m) >= bitset.Words(n) {
		return m
	}
	return bitset.New(n)
}

// candidates returns an n-sized candidate buffer, all Uncolored.
func (sc *Scratch) candidates(n int) []int32 {
	if sc == nil {
		return uncolored(nil, n)
	}
	sc.cand = uncolored(sc.cand, n)
	return sc.cand[:n]
}

// proposal returns an n-sized empty proposal (all Uncolored, zero win
// mask, no marks). The colors array and win mask are carved from the
// Scratch's buffers.
func (sc *Scratch) proposal(n int) Proposal {
	if sc == nil {
		return NewProposal(n)
	}
	sc.color = uncolored(sc.color, n)
	sc.win = zeroMask(sc.win, n)
	return Proposal{Color: sc.color[:n], Win: sc.win[:bitset.Words(n)]}
}

// markBuf returns an n-bit zeroed mask for Proposal.Mark.
func (sc *Scratch) markBuf(n int) bitset.Mask {
	if sc == nil {
		return bitset.New(n)
	}
	sc.mark = zeroMask(sc.mark, n)
	return sc.mark[:bitset.Words(n)]
}

// sampleFlags returns an n-sized all-false flag buffer (PutAside's S).
func (sc *Scratch) sampleFlags(n int) []bool {
	if sc == nil {
		return make([]bool, n)
	}
	sc.flags = zeroed(sc.flags, n)
	return sc.flags[:n]
}

// setsBuf returns an n-sized nil-filled slice-of-slices buffer.
func (sc *Scratch) setsBuf(n int) [][]int32 {
	if sc == nil {
		return make([][]int32, n)
	}
	sc.sets = zeroed(sc.sets, n)
	return sc.sets[:n]
}

// setWins derives prop's win mask: on a Scratch from the nodes this
// Propose wrote, on the nil path by a pass over every node's color.
func (sc *Scratch) setWins(r *par.Runner, prop Proposal, nodes []int32) {
	if sc == nil {
		prop.RecomputeWin(r)
		return
	}
	for _, v := range nodes {
		if prop.Color[v] != d1lc.Uncolored {
			prop.Win.Set(int(v))
		}
	}
}

// setMarks derives prop's put-aside mask from the sample S: v is marked
// when v is in S and no neighbour is. On a Scratch only the nodes this
// Propose wrote are tested, on the nil path all n.
func (sc *Scratch) setMarks(r *par.Runner, mark bitset.Mask, g *graph.Graph, inS []bool, nodes []int32) {
	if sc == nil {
		n := len(inS)
		// A mask too small to split fills with Fill, whose predicate stays
		// on the stack; FillPar's escapes to the heap (see
		// bitset.FillSplits).
		if !bitset.FillSplits(n) {
			mark.Fill(n, func(i int) bool { return aloneInS(g, inS, int32(i)) })
			return
		}
		// Word-parallel: each worker owns word-aligned node ranges, so the
		// shared mask words are never written by two goroutines.
		mark.FillPar(r, n, func(i int) bool { return aloneInS(g, inS, int32(i)) })
		return
	}
	for _, v := range nodes {
		if aloneInS(g, inS, v) {
			mark.Set(int(v))
		}
	}
}

// aloneInS reports whether v is in S and none of its neighbours is: the
// put-aside condition of Algorithm 9.
func aloneInS(g *graph.Graph, inS []bool, v int32) bool {
	if !inS[v] {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if inS[u] {
			return false
		}
	}
	return true
}

// forWritten runs body on every node a clique trial may have written: the
// recorded nodes on a Scratch, all n nodes on the nil path.
func (sc *Scratch) forWritten(r *par.Runner, n int, nodes []int32, body func(v int32)) {
	if sc == nil {
		r.For(n, func(i int) { body(int32(i)) })
		return
	}
	r.For(len(nodes), func(i int) { body(nodes[i]) })
}

// cliqueNodes lists, clique by clique, the inliers keep accepts: clique
// ci's run is nodes[offs[ci]:offs[ci+1]], in Inliers order. The lists are
// carved from the Scratch (fresh on a nil one).
func (sc *Scratch) cliqueNodes(cliques []CliqueInfo, keep func(c *CliqueInfo, v int32) bool) (nodes, offs []int32) {
	if sc != nil {
		nodes, offs = sc.nodes[:0], sc.offs[:0]
	}
	offs = append(offs, 0)
	for i := range cliques {
		c := &cliques[i]
		for _, v := range c.Inliers {
			if keep(c, v) {
				nodes = append(nodes, v)
			}
		}
		offs = append(offs, int32(len(nodes)))
	}
	if sc != nil {
		sc.nodes, sc.offs = nodes, offs
	}
	return nodes, offs
}

// workerBufs returns w per-worker sample arenas and palette shuffle
// buffers: MultiTrial's sampling loop carves each node's color set out of
// its worker's arena instead of allocating one slice per node per seed.
func (sc *Scratch) workerBufs(w int) (arenas, palBufs [][]int32) {
	if sc == nil {
		return make([][]int32, w), make([][]int32, w)
	}
	for len(sc.arenas) < w {
		sc.arenas = append(sc.arenas, nil)
	}
	for len(sc.palBufs) < w {
		sc.palBufs = append(sc.palBufs, nil)
	}
	return sc.arenas[:w], sc.palBufs[:w]
}

// cursors returns w per-worker bit cursors, one per reader goroutine of a
// trial's sampling loop. A lazy source (prg.LazySource) keeps its reader
// state, a chunk buffer and a stepper, in the cursor, so reusing the
// cursors across Propose calls keeps the seed walk free of per-seed
// allocation. On a nil Scratch they are fresh.
func (sc *Scratch) cursors(w int) []*rng.Bits {
	if sc == nil {
		cs := make([]*rng.Bits, w)
		for i := range cs {
			cs[i] = new(rng.Bits)
		}
		return cs
	}
	for len(sc.curs) < w {
		sc.curs = append(sc.curs, new(rng.Bits))
	}
	return sc.curs[:w]
}

// mapsBuf returns w reusable per-worker hash sets (cleared by the callee).
func (sc *Scratch) mapsBuf(w int) []map[int32]bool {
	if sc == nil {
		ms := make([]map[int32]bool, w)
		for i := range ms {
			ms[i] = make(map[int32]bool)
		}
		return ms
	}
	for len(sc.maps) < w {
		sc.maps = append(sc.maps, make(map[int32]bool))
	}
	return sc.maps[:w]
}

// CloneProposal copies p into fresh storage, detaching it from any
// Scratch lifetime.
func CloneProposal(p Proposal) Proposal {
	out := Proposal{
		Color: append([]int32(nil), p.Color...),
		Win:   append(bitset.Mask(nil), p.Win...),
	}
	if p.Mark != nil {
		out.Mark = append(bitset.Mask(nil), p.Mark...)
	}
	return out
}
