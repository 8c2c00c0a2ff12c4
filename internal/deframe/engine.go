package deframe

import (
	"fmt"
	"sync"

	"parcolor/internal/condexp"
	"parcolor/internal/hknt"
	"parcolor/internal/prg"
)

// This file is the incremental seed-scoring engine for Lemma 10: the
// shared-memory realization of the derandomization hot path. Where the
// naive path re-runs a monolithic full-graph scorer per seed — allocating
// a fresh PRG expansion, ChunkedSource and Proposal each time, and
// re-proposing the winning seed after selection — the engine
//
//   - scores each seed exactly once through condexp.Select, reusing
//     per-worker scratch (a reseedable prg.LazySource and an
//     hknt.Scratch) checked out of a package pool: pooled across seeds
//     within a step, across steps and across runs,
//   - keeps each seed's cost proportional to the step's participants,
//     their arcs and the PRG bits Propose's draws read, never to n or to
//     the step's declared bit budget: the hknt.Scratch resets only what
//     the previous seed's Propose wrote, reseeding the lazy source draws
//     only the generator's state (the KWise polynomial and its difference
//     rows), and the Scratch's per-worker cursors compute a chunk's bits
//     when a draw reaches them — of whichever node reads, participant or
//     not,
//   - scores the proposal with hknt.Step.ScoreChunk over all
//     participants, the very objective the naive DefaultScore sums, and
//   - caches the best-scoring proposal seen during the walk (colors, win
//     mask and marks cloned together), so the flat winner's proposal is
//     committed without being recomputed; a bitwise winner other than the
//     best seen is re-proposed once, through the same lazy source.
//
// The walk runs on the step's par.Runner: the owning solve's worker
// budget bounds it, and its context cancels it between seeds.
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

	best     condexp.BestSeen
	bestProp hknt.Proposal
}

func newStepEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) *stepEngine {
	return &stepEngine{
		st: st, step: step, parts: parts,
		gen: gen, chunkOf: chunkOf, numChunks: numChunks,
	}
}

// propose runs the step's Propose for one seed on the worker's scratch.
// The proposal aliases ss.sc until its next Propose.
func (e *stepEngine) propose(ss *seedScratch, seed uint64) hknt.Proposal {
	ss.src.Reseed(seed)
	return e.step.Propose(e.st, e.parts, ss.src, ss.sc)
}

// score is the condexp.Scorer: propose once for the seed with pooled
// scratch, score the proposal over every participant, and offer it to the
// best-seen cache.
func (e *stepEngine) score(seed uint64) int64 {
	ss := e.getScratch()
	prop := e.propose(ss, seed)
	score := e.step.ScoreChunk(e.st, e.parts, prop, 0, len(e.parts))
	e.offerBest(seed, score, prop)
	seedScratches.Put(ss)
	return score
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

// selectSeedTable runs the engine path for one step: score every seed
// once on the step's runner, select (flat or bitwise), and return the
// selected seed's result plus its proposal. A cancelled runner aborts the
// walk and surfaces the context error.
func (e *stepEngine) selectSeedTable(o Options) (condexp.Result, hknt.Proposal, error) {
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, e.score)
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	return res, e.proposalFor(res.Seed), nil
}

// seedScratches pools the workers' seed-evaluation scratch across seeds,
// steps and runs.
var seedScratches = sync.Pool{New: func() any { return &seedScratch{sc: hknt.NewScratch()} }}

// seedScratch is one worker's reusable evaluation state: the lazy PRG
// source it reseeds per seed and the hknt.Scratch whose per-worker
// cursors read it.
type seedScratch struct {
	src *prg.LazySource
	sc  *hknt.Scratch
}

// getScratch checks a seed-evaluation scratch out of the pool and
// retargets it to the engine's generator, chunk layout and bit budget,
// keeping its buffers.
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
	return ss
}
