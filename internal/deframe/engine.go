package deframe

import (
	"fmt"
	"sync"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/hknt"
	"parcolor/internal/kernel"
	"parcolor/internal/prg"
)

// This file is the incremental seed-scoring engine for Lemma 10: the
// machine-local contribution-table realization of the derandomization hot
// path. Where the naive path re-runs a monolithic full-graph scorer per
// seed — allocating a fresh PRG expansion, ChunkedSource and Proposal each
// time, and re-proposing the winning seed after selection — the engine
//
//   - walks the seed space once, reusing per-worker scratch (a reseedable
//     prg.LazySource and an hknt.Scratch) checked out of a package pool:
//     pooled across seeds within a step, across steps and across runs,
//   - keeps each seed's cost proportional to the step's participants,
//     their arcs and the PRG bits Propose's draws read, never to n or to
//     the step's declared bit budget: the hknt.Scratch resets only what
//     the previous seed's Propose wrote, reseeding the lazy source draws
//     only the generator's state (the KWise polynomial and its difference
//     rows), and the Scratch's per-worker cursors compute a chunk's bits
//     when a draw reaches them — of whichever node reads, participant or
//     not,
//   - records each seed's per-chunk score contributions straight into the
//     seed's contiguous row of the seed-major condexp.ContribTable
//     (zero-copy: the fill writes its final cells in place) — win-counting
//     steps (SSP == nil) gather the proposal's win mask into dense
//     participant-index space and count each chunk by popcount, 64
//     participants per word — so flat and bitwise selection are pure table
//     aggregation with zero extra scorer invocations, and
//   - caches the best-scoring proposal seen during the walk (colors, win
//     mask and marks cloned together), so the flat winner's proposal is
//     committed without being recomputed; a bitwise winner other than the
//     best seen is re-proposed once, through the same lazy source.
//
// The fill loop runs on the step's par.Runner: the owning solve's worker
// budget bounds the walk, and its context cancels it between seeds.
//
// The naive path remains available via Options.NaiveScoring as the
// oracle for differential tests: it proposes with a nil hknt.Scratch
// (fresh n-sized buffers, masks from a pass over all n) and expands the
// generator's whole output per seed (prg.NewChunkedSource).

// stepEngine scores one step's seed space incrementally.
type stepEngine struct {
	st        *hknt.State
	step      *hknt.Step
	parts     []int32
	gen       prg.PRG
	chunkOf   []int32
	numChunks int
	nChunks   int // score chunks (table rows)

	// bounds[c] is the first participant index of score chunk c — the
	// c*np/k partition computed once instead of per chunk per seed.
	bounds []int32

	best     condexp.BestSeen
	bestProp hknt.Proposal
}

func newStepEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) *stepEngine {
	e := &stepEngine{
		st: st, step: step, parts: parts,
		gen: gen, chunkOf: chunkOf, numChunks: numChunks,
		nChunks: condexp.ScoreChunks(len(parts)),
	}
	e.bounds = condexp.ChunkBounds(len(parts), e.nChunks)
	return e
}

// propose runs the step's Propose for one seed on the worker's scratch.
// The proposal aliases ss.sc until its next Propose.
func (e *stepEngine) propose(ss *seedScratch, seed uint64) hknt.Proposal {
	ss.src.Reseed(seed)
	return e.step.Propose(e.st, e.parts, ss.src, ss.sc)
}

// fill is the condexp.ChunkFiller: propose once for the seed with pooled
// scratch, score each participant chunk's contribution straight into the
// seed's in-place table row (row aliases the seed-major grid, so the
// popcounts land in their final cells with no staging copy), and offer
// the proposal to the best-seen cache with the row's unit-stride reduce
// as the seed's total.
//
// Win-counting steps (SSP == nil) take the mask path: the proposal's
// node-indexed win mask is gathered into dense participant-index space
// with a branchless bit gather, and every chunk's −wins is a popcount
// over its index range — Lemma 10's per-machine contribution, 64
// participants per word. SSP steps evaluate the predicate per
// participant, exactly as the naive ScoreChunk does.
func (e *stepEngine) fill(seed uint64, row []int64) {
	ss := e.getScratch()
	prop := e.propose(ss, seed)
	k := len(row)
	if e.step.SSP == nil {
		pw := ss.partsWin
		pw.Gather(len(e.parts), func(i int) uint64 { return prop.Win.Bit(int(e.parts[i])) })
		for c := 0; c < k; c++ {
			row[c] = -int64(pw.CountRange(int(e.bounds[c]), int(e.bounds[c+1])))
		}
	} else {
		for c := 0; c < k; c++ {
			row[c] = e.step.ScoreChunk(e.st, e.parts, prop, int(e.bounds[c]), int(e.bounds[c+1]))
		}
	}
	e.offerBest(seed, kernel.Sum(row), prop)
	seedScratches.Put(ss)
}

// offerBest offers the proposal to the best-seen cache (the flat
// selection's winner), cloning it out of the worker's scratch when it
// takes the slot.
func (e *stepEngine) offerBest(seed uint64, score int64, prop hknt.Proposal) {
	e.best.Offer(seed, score, func() {
		e.bestProp = hknt.CloneProposal(prop, e.bestProp)
	})
}

// proposalFor returns the chosen seed's proposal: the cached clone when the
// seed matches (always, for flat selection), otherwise one fresh
// re-proposal through a pooled lazy source (bitwise selection may pick a
// non-argmin seed), cloned out of the scratch.
func (e *stepEngine) proposalFor(seed uint64) hknt.Proposal {
	if e.best.Matches(seed) {
		return e.bestProp
	}
	ss := e.getScratch()
	prop := hknt.CloneProposal(e.propose(ss, seed), hknt.Proposal{})
	seedScratches.Put(ss)
	return prop
}

// selectSeedTable runs the full table path for one step: build the
// contribution table in one parallel pass on the step's runner, aggregate
// (flat or bitwise), and return the selected seed's result plus its
// proposal. A cancelled runner aborts the build and surfaces the context
// error.
func (e *stepEngine) selectSeedTable(o Options) (condexp.Result, hknt.Proposal, error) {
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, e.nChunks, e.fill)
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	return res, e.proposalFor(res.Seed), nil
}

// seedScratches pools the workers' seed-evaluation scratch across seeds,
// steps and runs.
var seedScratches = sync.Pool{New: func() any { return &seedScratch{sc: hknt.NewScratch()} }}

// seedScratch is one worker's reusable evaluation state: the lazy PRG
// source it reseeds per seed, the hknt.Scratch whose per-worker cursors
// read it, and partsWin, the dense participant-index win mask the popcount
// scoring path gathers into.
type seedScratch struct {
	src      *prg.LazySource
	sc       *hknt.Scratch
	partsWin bitset.Mask
}

// getScratch checks a seed-evaluation scratch out of the pool and
// retargets it to the engine's (generator, chunk layout, participant)
// shape, keeping its buffers.
func (e *stepEngine) getScratch() *seedScratch {
	ss := seedScratches.Get().(*seedScratch)
	var err error
	if ss.src == nil {
		ss.src, err = prg.NewLazySource(e.gen, e.chunkOf, e.numChunks, e.step.Bits)
	} else {
		err = ss.src.Retarget(e.gen, e.chunkOf, e.numChunks, e.step.Bits)
	}
	if err != nil {
		// Generator too short is a construction bug; make it loud.
		panic(fmt.Sprintf("deframe: %v", err))
	}
	ss.partsWin = ss.partsWin.Grow(len(e.parts))
	return ss
}
