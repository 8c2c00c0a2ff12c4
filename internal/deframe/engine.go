package deframe

import (
	"fmt"

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
//     ChunkedSource and an hknt.Scratch) checked out of the run's Cache:
//     pooled across seeds within a step, across steps within a run, and —
//     when the Cache belongs to a long-lived Solver — across runs,
//   - re-expands only the live chunks per seed: the chunks covering the
//     step's participants (plus any declared extra bit readers, e.g.
//     clique leaders), threaded through the pooled scratch's
//     ReseedChunks, so per-seed expansion cost tracks the step's
//     participant set instead of the whole graph,
//   - records each seed's per-chunk score contributions straight into the
//     seed's contiguous row of the seed-major condexp.ContribTable
//     (zero-copy: the fill writes its final cells in place) — win-counting
//     steps (SSP == nil) gather the proposal's win mask into dense
//     participant-index space and count each chunk by popcount, 64
//     participants per word — so flat and bitwise selection are pure table
//     aggregation with zero extra scorer invocations, and
//   - caches the best-scoring proposal seen during the walk (colors, win
//     mask and marks cloned together), so the flat winner's proposal is
//     committed without being recomputed.
//
// The fill loop runs on the step's par.Runner: the owning solve's worker
// budget bounds the walk, and its context cancels it between seeds.
//
// The naive path remains available via Options.NaiveScoring as the
// oracle for differential tests.

// stepEngine scores one step's seed space incrementally.
type stepEngine struct {
	st        *hknt.State
	step      *hknt.Step
	parts     []int32
	gen       prg.PRG
	chunkOf   []int32
	numChunks int
	nChunks   int // score chunks (table rows)

	// liveChunks lists the distinct PRG chunks the step's Propose may
	// read: those of the participants plus the step's declared extra
	// readers. nil when every chunk is live (sparse re-expansion would
	// save nothing).
	liveChunks []int32
	// bounds[c] is the first participant index of score chunk c — the
	// c*np/k partition computed once instead of per chunk per seed.
	bounds []int32

	// cache supplies pooled scratch and table storage: the run's
	// (possibly Solver-owned) Cache, or an ephemeral one scoped to this
	// engine when the run has none.
	cache *Cache

	best     condexp.BestSeen
	bestProp hknt.Proposal
}

func newStepEngine(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, cache *Cache) *stepEngine {
	if cache == nil {
		cache = NewCache() // per-engine pooling, the pre-Cache behavior
	}
	e := &stepEngine{
		st: st, step: step, parts: parts,
		gen: gen, chunkOf: chunkOf, numChunks: numChunks,
		nChunks: condexp.ScoreChunks(len(parts)),
		cache:   cache,
	}
	seen := make([]bool, numChunks)
	live := make([]int32, 0, len(parts))
	mark := func(v int32) {
		if c := chunkOf[v]; !seen[c] {
			seen[c] = true
			live = append(live, c)
		}
	}
	for _, v := range parts {
		mark(v)
	}
	if step.Readers != nil {
		for _, v := range step.Readers(st) {
			mark(v)
		}
	}
	if len(live) < numChunks {
		e.liveChunks = live
	}
	e.bounds = condexp.ChunkBounds(len(parts), e.nChunks)
	return e
}

// reseed re-expands the worker's PRG source for one seed: only the live
// chunks when the step reads a strict subset of them, the full output
// otherwise. Bit-identical to a full expansion on every chunk Propose
// reads.
func (e *stepEngine) reseed(ss *seedScratch, seed uint64) *prg.ChunkedSource {
	if e.liveChunks != nil {
		return ss.src.ReseedChunks(seed, e.liveChunks)
	}
	return ss.src.Reseed(seed)
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
	ss := e.cache.getScratch(e)
	src := e.reseed(ss, seed)
	prop := e.step.Propose(e.st, e.parts, src, ss.sc)
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
	e.cache.putScratch(ss)
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
// re-proposal (bitwise selection may pick a non-argmin seed).
func (e *stepEngine) proposalFor(seed uint64) hknt.Proposal {
	if e.best.Matches(seed) {
		return e.bestProp
	}
	src, err := prg.NewChunkedSource(e.gen, seed, e.chunkOf, e.numChunks, e.step.Bits)
	if err != nil {
		panic(fmt.Sprintf("deframe: %v", err))
	}
	return e.step.Propose(e.st, e.parts, src, nil)
}

// selectSeedTable runs the full table path for one step: build the
// contribution table in one parallel pass on the step's runner, aggregate
// (flat or bitwise), and return the selected seed's result plus its
// proposal. A cancelled runner aborts the build and surfaces the context
// error.
func (e *stepEngine) selectSeedTable(o Options) (condexp.Result, hknt.Proposal, error) {
	tbl, err := e.cache.tableCache().Build(o.Par, 1<<o.SeedBits, e.nChunks, e.fill)
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	var res condexp.Result
	if o.Bitwise {
		res = tbl.SelectSeedBitwise(o.SeedBits)
	} else {
		res = tbl.SelectSeed()
	}
	e.cache.tableCache().Release(tbl)
	return res, e.proposalFor(res.Seed), nil
}
