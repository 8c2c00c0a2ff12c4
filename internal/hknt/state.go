// Package hknt implements the LOCAL (degree+1)-list-coloring algorithm of
// Halldórsson, Kuhn, Nolin and Tonoyan (STOC'22) as structured in
// Section 2.2 of the paper: TryRandomColor, MultiTrial, GenerateSlack,
// SlackColor, the Vstart machinery, SynchColorTrial, PutAside, and the
// ColorSparse / ColorDense / ColorMiddle drivers.
//
// Every randomized subroutine is expressed as a pure *trial*: a Propose
// function that reads the current State plus a per-node random-bit source
// and returns a Proposal (colors won, or put-aside marks) without mutating
// anything. The randomized pipeline applies proposals directly with fresh
// randomness; the derandomization framework (package deframe) instead
// scores proposals across a PRG seed space, applies the best, and defers
// strong-success-property failures — exactly the normal-procedure shape of
// Definition 5 that Lemma 13 establishes for these subroutines.
package hknt

import (
	"fmt"
	"sync"

	"parcolor/internal/bitset"
	"parcolor/internal/d1lc"
	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// RandSource provides each node's random bits for one trial.
// prg.LazySource and prg.ChunkedSource satisfy it (PRG chunks);
// FreshSource draws true pseudorandomness.
type RandSource interface {
	BitsFor(v int32) *rng.Bits
}

// ViewSource is an optional RandSource extension for PRG chunk sources:
// a node's bits are handed out through a reused worker-local cursor, with
// no per-node allocation. prg.ChunkedSource points the cursor into its
// expanded string; prg.LazySource keeps the reader's expansion state in
// the cursor and computes the chunk's bits as draws reach them.
type ViewSource interface {
	RandSource
	BitsForInto(v int32, dst *rng.Bits)
}

// bitsFor reads node v's bits through the worker-local cursor dst when the
// source supports views, falling back to the allocating BitsFor otherwise
// (FreshSource derives fresh words per node by construction).
func bitsFor(src RandSource, v int32, dst *rng.Bits) *rng.Bits {
	if vs, ok := src.(ViewSource); ok {
		vs.BitsForInto(v, dst)
		return dst
	}
	return src.BitsFor(v)
}

// FreshSource derives an independent bit string per node from a root seed
// and a round number: the randomized baseline's source.
type FreshSource struct {
	Root  uint64
	Round uint64
	Bits  int
}

// BitsFor returns node v's fresh bits.
func (f FreshSource) BitsFor(v int32) *rng.Bits {
	return rng.FreshBits(rng.At2(f.Root, uint64(v), f.Round), f.Bits)
}

// Meter counts the LOCAL rounds a run simulates. The trials run directly
// on shared state, so the schedule loops Tick once per LOCAL round a step
// stands for, and Result.Rounds and the experiment tables report that
// unit.
type Meter struct {
	Rounds int
}

// Tick records n LOCAL rounds.
func (m *Meter) Tick(n int) { m.Rounds += n }

// State is the evolving coloring state shared by every subroutine.
type State struct {
	In  *d1lc.Instance
	Col *d1lc.Coloring
	// Rem[v] is v's remaining palette: the input palette minus permanent
	// colors of already-colored neighbors, in palette (ascending) order.
	// Maintained by SetColor. FinishGreedy, the last step of a run,
	// colors without updating it, so it is stale afterwards.
	Rem [][]int32
	// liveDeg[v] counts v's uncolored, non-deferred neighbors.
	liveDeg []int32
	// Deferred marks nodes removed from the current pipeline run; they are
	// re-colored later through self-reduction (Definition 11).
	Deferred []bool
	// PutAside marks Algorithm 9 nodes: out of the running like deferred
	// nodes (so neighbors gain slack) but colored by their clique leader in
	// the pipeline's finisher rather than by recursion.
	PutAside []bool
	// live is the word-packed live set: live.Test(v) ⇔ uncolored ∧
	// ¬deferred ∧ ¬put-aside. Maintained by SetColor/Defer/MarkPutAside and
	// FinishGreedy so the per-(seed, node) Live checks of the scoring
	// loops are one bit test instead of three array loads.
	live bitset.Mask
	// Par scopes the trials' parallel loops to the owning solve's worker
	// budget. nil means the process default. Solvers set it right after
	// NewState; one State serves one solve. A seed walk proposes on a
	// shallow copy of it whose Par is a one-worker runner: the copy shares
	// every array, and the walk spreads its seeds, not a seed's loops,
	// over the solve's workers.
	Par *par.Runner
	// Meter accounts LOCAL rounds consumed.
	Meter Meter
	// remArena is the flat backing the Rem slices are carved from.
	// Palettes only ever shrink in place after initialization
	// (removeColor compacts within the slice), so carved sub-slices can
	// never bleed into a neighbor's range.
	remArena []int32
}

// states recycles State backing arrays (remaining palettes and their flat
// arena, degree counters, deferral flags, the live mask) across runs.
var states = sync.Pool{New: func() any { return new(State) }}

// NewState initializes the run state for an instance, reusing the backing
// arrays of a released State when the package pool holds one. The
// Coloring is always freshly allocated — it escapes as the run's result —
// so pooled storage never aliases anything a caller holds.
func NewState(in *d1lc.Instance) *State {
	st := states.Get().(*State)
	n := in.G.N()
	st.In = in
	st.Col = d1lc.NewColoring(n) // escapes with the caller; never pooled
	st.Par = nil
	st.Meter = Meter{}
	if cap(st.Rem) < n {
		st.Rem = make([][]int32, n)
	} else {
		st.Rem = st.Rem[:n]
	}
	if cap(st.liveDeg) < n {
		st.liveDeg = make([]int32, n)
	} else {
		st.liveDeg = st.liveDeg[:n]
	}
	st.Deferred = growBoolZeroed(st.Deferred, n)
	st.PutAside = growBoolZeroed(st.PutAside, n)
	st.live = st.live.Grow(n)
	st.live.FillOnes(n)
	total := 0
	for v := 0; v < n; v++ {
		total += len(in.Palettes[v])
	}
	if cap(st.remArena) < total {
		st.remArena = make([]int32, total)
	} else {
		st.remArena = st.remArena[:total]
	}
	off := 0
	for v := 0; v < n; v++ {
		pal := in.Palettes[v]
		end := off + len(pal)
		copy(st.remArena[off:end], pal)
		st.Rem[v] = st.remArena[off:end:end]
		off = end
		st.liveDeg[v] = int32(in.G.Degree(int32(v)))
	}
	return st
}

// Release returns the state's backing arrays to the package pool for a
// later NewState. The instance and coloring are detached first (the
// coloring is the caller's result); st must not be used afterwards.
func (st *State) Release() {
	st.In = nil
	st.Col = nil
	st.Par = nil
	states.Put(st)
}

// growBoolZeroed returns a length-n all-false bool slice reusing prior
// capacity.
func growBoolZeroed(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// LiveDegree returns the number of uncolored, non-deferred neighbors of v.
func (st *State) LiveDegree(v int32) int { return int(st.liveDeg[v]) }

// Colored reports whether v has a permanent color.
func (st *State) Colored(v int32) bool { return st.Col.Colors[v] != d1lc.Uncolored }

// Live reports whether v is uncolored, not deferred, and not put aside:
// one test of the packed live mask.
func (st *State) Live(v int32) bool { return st.live.Test(int(v)) }

// HasRem reports whether c remains in v's palette.
func (st *State) HasRem(v, c int32) bool {
	for _, x := range st.Rem[v] {
		if x == c {
			return true
		}
	}
	return false
}

// SetColor permanently colors v with c, pruning neighbors' palettes and
// degrees. It panics on a violation (c missing from Rem[v] or a colored
// neighbor already holding c): proposals are conflict-free by
// construction, so a violation is a bug, not a data condition.
func (st *State) SetColor(v, c int32) {
	if st.Colored(v) {
		panic(fmt.Sprintf("hknt: SetColor(%d) already colored", v))
	}
	if !st.HasRem(v, c) {
		panic(fmt.Sprintf("hknt: SetColor(%d,%d) color not in remaining palette", v, c))
	}
	for _, u := range st.In.G.Neighbors(v) {
		if st.Col.Colors[u] == c {
			panic(fmt.Sprintf("hknt: SetColor(%d,%d) conflicts with neighbor %d", v, c, u))
		}
	}
	wasLive := st.Live(v) // deferred/put-aside nodes already left degrees
	st.Col.Colors[v] = c
	st.live.Clear(int(v))
	for _, u := range st.In.G.Neighbors(v) {
		if wasLive {
			st.liveDeg[u]--
		}
		if !st.Colored(u) {
			st.Rem[u] = removeColor(st.Rem[u], c)
		}
	}
}

// MarkPutAside moves v into the put-aside set: neighbors' live degrees
// drop (slack improves) and v stops participating until the schedule's
// finisher colors it from its maintained remaining palette.
func (st *State) MarkPutAside(v int32) {
	if !st.Live(v) {
		panic(fmt.Sprintf("hknt: MarkPutAside(%d) not live", v))
	}
	st.PutAside[v] = true
	st.live.Clear(int(v))
	for _, u := range st.In.G.Neighbors(v) {
		st.liveDeg[u]--
	}
}

// Defer removes v from the current run: neighbors' live degrees drop but
// their palettes keep all colors, so every neighbor's slack strictly
// improves. Deferring an already-deferred or colored node panics.
func (st *State) Defer(v int32) {
	if st.Deferred[v] || st.Colored(v) {
		panic(fmt.Sprintf("hknt: Defer(%d) not live", v))
	}
	st.Deferred[v] = true
	st.live.Clear(int(v))
	for _, u := range st.In.G.Neighbors(v) {
		st.liveDeg[u]--
	}
}

func removeColor(pal []int32, c int32) []int32 {
	for i, x := range pal {
		if x == c {
			return append(pal[:i], pal[i+1:]...)
		}
	}
	return pal
}

// Proposal is the pure outcome of one trial, in struct-of-arrays form:
// the colors array keeps the payload (which color each winner takes) and
// the word-packed masks keep the membership sets, so consumers count wins
// by popcount and walk winners by set-bit iteration instead of scanning
// sentinels node by node.
//
// Invariant: Win.Test(v) ⇔ Color[v] != d1lc.Uncolored. Trials maintain it
// by deriving the mask after their conflict pass: from the nodes they
// wrote when handed a Scratch, by RecomputeWin (a word-parallel pass over
// Color) otherwise. Callers that write Color directly must do the same,
// or use SetWin.
type Proposal struct {
	// Color[v] is the color v won this trial, or d1lc.Uncolored.
	Color []int32
	// Win is the word-packed win set over nodes.
	Win bitset.Mask
	// Mark is the word-packed put-aside set (PutAside trials only; nil
	// otherwise).
	Mark bitset.Mask
}

// NewProposal allocates an empty proposal for n nodes.
func NewProposal(n int) Proposal {
	p := Proposal{Color: make([]int32, n), Win: bitset.New(n)}
	for i := range p.Color {
		p.Color[i] = d1lc.Uncolored
	}
	return p
}

// SetWin records that v won color c, keeping Color and Win in step.
func (p Proposal) SetWin(v, c int32) {
	p.Color[v] = c
	p.Win.Set(int(v))
}

// RecomputeWin rebuilds the win mask from the colors array (word-parallel
// over word-aligned ranges): the trials' finishing pass after their
// node-parallel conflict loops, which cannot write shared mask words
// without racing. r scopes the fan-out (nil = process default); trials
// pass their State's runner so the pass honors the solve's worker budget.
// A mask too small to split is filled by Fill, whose predicate stays on
// the stack, so the scoring oracles' per-seed rebuilds allocate nothing.
func (p Proposal) RecomputeWin(r *par.Runner) {
	n := len(p.Color)
	if !bitset.FillSplits(n) {
		p.Win.Fill(n, func(i int) bool { return p.Color[i] != d1lc.Uncolored })
		return
	}
	p.Win.FillPar(r, n, func(i int) bool { return p.Color[i] != d1lc.Uncolored })
}

// Apply commits every win and put-aside mark in the proposal, walking the
// set bits of the masks in node order (deterministic; wins are
// conflict-free by trial construction).
func (st *State) Apply(p Proposal) (colored int) {
	p.Win.ForEach(func(i int) {
		v := int32(i)
		if st.Live(v) {
			st.SetColor(v, p.Color[v])
			colored++
		}
	})
	if p.Mark != nil {
		p.Mark.ForEach(func(i int) {
			v := int32(i)
			if st.Live(v) {
				st.MarkPutAside(v)
			}
		})
	}
	return colored
}

// LiveNodes returns all live nodes, optionally filtered, by walking the
// set bits of the live mask.
func (st *State) LiveNodes(filter func(v int32) bool) []int32 {
	var out []int32
	st.live.ForEach(func(i int) {
		v := int32(i)
		if filter == nil || filter(v) {
			out = append(out, v)
		}
	})
	return out
}
