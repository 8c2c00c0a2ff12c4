package deframe

import (
	"fmt"
	"sync"

	"parcolor/internal/condexp"
	"parcolor/internal/hknt"
	"parcolor/internal/prg"
)

// This file is the incremental seed-scoring engine for Lemma 10: the
// shared-memory realization of the derandomization hot path, and the
// seed selector every solve runs. Where a naive scorer re-runs a
// monolithic full-graph proposal per seed — allocating a fresh PRG
// expansion, ChunkedSource and Proposal each time — the engine
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
//   - scores the proposal with hknt.Step.Score over all participants,
//     and
//   - after selection, re-proposes the selected seed once on pooled
//     scratch and clones that proposal out of it: Propose is pure in
//     (state, seed), so the committed proposal is the one the walk scored,
//     at the cost of one more seed out of the 2^d.
//
// The walk runs on the step's par.Runner: the owning solve's worker
// budget bounds it, and its context cancels it between seeds.
//
// The tests' oracle (oracle_test.go) is the naive scorer: it proposes
// with a nil hknt.Scratch (fresh n-sized buffers, masks from a pass over
// all n) and expands the generator's whole output per seed
// (prg.NewChunkedSource).

// seedSelector selects one step's seed over the generator's seed space
// and returns the selected seed's result and proposal. A cancelled runner
// surfaces the context error. selectByEngine is the one a solve runs.
type seedSelector func(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error)

// selectByEngine is the seedSelector of every solve: score every seed
// once on the step's runner, select (flat or bitwise), and return the
// selected seed's result plus its proposal.
func selectByEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error) {
	e := newStepEngine(st, step, parts, gen, chunkOf, numChunks)
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, e.score)
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	return res, e.proposalFor(res.Seed), nil
}

// stepEngine scores one step's seed space incrementally.
type stepEngine struct {
	st        *hknt.State
	step      *hknt.Step
	parts     []int32
	gen       prg.PRG
	chunkOf   []int32
	numChunks int
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
// scratch and score the proposal over every participant.
func (e *stepEngine) score(seed uint64) int64 {
	ss := e.getScratch()
	score := e.step.Score(e.st, e.parts, e.propose(ss, seed))
	seedScratches.Put(ss)
	return score
}

// proposalFor re-proposes the selected seed on pooled scratch and returns
// a clone detached from it.
func (e *stepEngine) proposalFor(seed uint64) hknt.Proposal {
	ss := e.getScratch()
	prop := hknt.CloneProposal(e.propose(ss, seed))
	seedScratches.Put(ss)
	return prop
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
