package deframe

import (
	"fmt"
	"sync"

	"parcolor/internal/condexp"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// This file is the incremental seed-scoring engine for Lemma 10: the
// shared-memory realization of the derandomization hot path, and the
// seed selector every solve runs. Where a naive scorer re-runs a
// monolithic full-graph proposal per seed — allocating a fresh PRG
// expansion, ChunkedSource and Proposal each time — the engine
//
//   - scores seeds in increasing order, each at most once, through
//     condexp.Select: a flat walk stops at the first seed that scores the
//     step's floor (hknt.Step.Floor), the seed full enumeration would
//     select, and a bitwise walk scores all 2^d. It reuses per-worker
//     scratch (a reseedable prg.LazySource and an hknt.Scratch) checked
//     out of a package pool: pooled across seeds within a step, across
//     steps and across runs,
//   - keeps each seed's cost proportional to the step's participants,
//     their arcs and the PRG bits Propose's draws read, never to n or to
//     the step's declared bit budget. The participants' induced subgraph
//     (hknt.PartGraph) is built once per step and bound to every
//     checked-out Scratch, so the conflict passes of TryRandomColor,
//     GenerateSlack and MultiTrial read only the arcs between two
//     participants. The hknt.Scratch resets only what the previous seed's
//     Propose wrote, reseeding the lazy source draws only the generator's
//     state (the KWise polynomial and its difference rows), and the
//     Scratch's cursors compute a chunk's bits when a draw reaches them —
//     of whichever node reads, participant or not,
//   - scores the proposal with hknt.Step.Score over all participants,
//     and
//   - after selection, re-proposes the selected seed once on pooled
//     scratch and clones that proposal out of it: Propose is pure in
//     (state, seed), so the committed proposal is the one the walk scored,
//     at the cost of one more seed.
//
// condexp.Select hands blocks of consecutive seeds, in increasing order,
// to the owning solve's runner's workers (its worker budget bounds the
// walk, and its context cancels it between seeds), and each seed runs on
// the one worker that scores it: Propose and Score run on a shallow copy
// of the step's hknt.State whose Par is a one-worker runner, so no seed
// fans out a second time.
//
// The tests' oracle (oracle_test.go) is the naive scorer: it proposes
// with a nil hknt.Scratch (fresh n-sized buffers, masks from a pass over
// all n) and expands the generator's whole output per seed
// (prg.NewChunkedSource).

// seedSelector selects one step's seed over the generator's seed space
// and returns the selected seed's result and proposal. A cancelled runner
// surfaces the context error. selectByEngine is the one a solve runs.
type seedSelector func(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error)

// selectByEngine is the seedSelector of every solve: score the seeds in
// order on the solve's runner, up to the first that scores the step's
// floor when flat and all of them when bitwise, select, and return the
// selected seed's result plus its proposal.
func selectByEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error) {
	e := newStepEngine(st, step, parts, gen, chunkOf, numChunks)
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, step.Floor(parts), e.score)
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	return res, e.proposalFor(res.Seed), nil
}

// walkRunner runs one seed's Propose and Score: the seeds are already
// spread over the solve's workers.
var walkRunner = par.NewRunner(1)

// stepEngine scores one step's seed space incrementally.
type stepEngine struct {
	st        *hknt.State // the solve's State under walkRunner
	step      *hknt.Step
	parts     []int32
	pg        *hknt.PartGraph // the subgraph parts induces
	gen       prg.PRG
	chunkOf   []int32
	numChunks int
}

func newStepEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) *stepEngine {
	walk := *st
	walk.Par = walkRunner
	return &stepEngine{
		st: &walk, step: step, parts: parts, pg: hknt.NewPartGraph(st.In.G, parts),
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
	putScratch(ss)
	return score
}

// proposalFor re-proposes the selected seed on pooled scratch and returns
// a clone detached from it.
func (e *stepEngine) proposalFor(seed uint64) hknt.Proposal {
	ss := e.getScratch()
	prop := hknt.CloneProposal(e.propose(ss, seed))
	putScratch(ss)
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

// getScratch checks a seed-evaluation scratch out of the pool, retargets
// it to the engine's generator, chunk layout and bit budget, keeping its
// buffers, and binds it to the step's participant graph.
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
	ss.sc.Bind(e.pg)
	return ss
}

// putScratch unbinds ss from its step's participant graph and returns it
// to the pool, so the pool never keeps a finished step's graph alive.
func putScratch(ss *seedScratch) {
	ss.sc.Bind(nil)
	seedScratches.Put(ss)
}
