package mis

import (
	"sync"
	"sync/atomic"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/graph"
	"parcolor/internal/prg"
	"parcolor/internal/rng"
)

// This file is the seed-selection engine for the derandomized Luby
// rounds: the mis instantiation of condexp.Select. Where the naive oracle
// re-runs a monolithic full-graph scorer per seed — expanding the PRG over
// every node's chunk and allocating fresh priority/join arrays and a
// ChunkedSource each time — the engine
//
//   - scores each seed exactly once, reusing per-worker scratch (a
//     reseedable prg.LazySource, its reader cursor, a priority buffer and
//     a word-packed join mask) from a package pool shared across seeds,
//     rounds and runs,
//   - reads the undecided nodes' chunks through the lazy source, so
//     per-seed expansion cost tracks the shrinking live set instead of n
//     (a priority reads all of its node's chunk, so laziness saves mis no
//     bits; the engines share one chunk path),
//   - keeps the per-seed join set as a bitset.Mask over nodes (a decided
//     neighbor's bit is permanently zero, so the dominance scan reads one
//     bit per neighbor) and scores a seed by counting the participants
//     its join set leaves undecided, and
//   - caches the best-scoring join mask seen during the walk, so the flat
//     winner's join is committed from the mask without being recomputed;
//     a bitwise winner other than the best seen is re-simulated once on
//     pooled scratch.
//
// The naive path remains available via Options.NaiveScoring as the oracle
// for differential tests; both paths are bit-identical in selected seed,
// score, certificate, and resulting MIS.

// engineIDs issues the unique ids misScratch.owner tags pooled scratch
// with (a counter, not a pointer, so pooled entries never retain a
// finished engine).
var engineIDs atomic.Uint64

// roundEngine scores one Luby round's seed space incrementally.
type roundEngine struct {
	id        uint64 // unique per engine, never zero
	g         *graph.Graph
	state     []NodeState
	parts     []int32 // undecided nodes, ascending
	gen       prg.PRG
	chunkOf   []int32
	numChunks int

	best     condexp.BestSeen
	bestJoin bitset.Mask
}

func newRoundEngine(g *graph.Graph, state []NodeState, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) *roundEngine {
	return &roundEngine{
		id: engineIDs.Add(1),
		g:  g, state: state, parts: parts,
		gen: gen, chunkOf: chunkOf, numChunks: numChunks,
	}
}

// simulate draws every undecided node's priority for the seed and writes
// the round's join set into ss.join: each undecided node joins iff no
// undecided neighbor drew a higher priority.
func (e *roundEngine) simulate(ss *misScratch, seed uint64) {
	ss.src.Reseed(seed)
	for _, v := range e.parts {
		ss.src.BitsForInto(v, &ss.cur)
		ss.prio[v] = priority(v, &ss.cur)
	}
	for _, v := range e.parts {
		best := true
		for _, u := range e.g.Neighbors(v) {
			if e.state[u] == Undecided && ss.prio[u] > ss.prio[v] {
				best = false
				break
			}
		}
		ss.join.SetTo(int(v), best)
	}
}

// score is the condexp.Scorer: simulate one Luby round for the seed with
// pooled scratch and count the participants it leaves undecided.
func (e *roundEngine) score(seed uint64) int64 {
	ss := e.getScratch()
	e.simulate(ss, seed)
	var undone int64
	for _, v := range e.parts {
		if stillUndecided(e.g, ss.join, v) {
			undone++
		}
	}
	e.offerBest(seed, undone, ss.join)
	scratches.Put(ss)
	return undone
}

// stillUndecided reports whether undecided node v stays undecided under
// the join mask: it neither joins nor has a joining neighbor — the
// complement of simulateDecided's per-node predicate. Decided neighbors'
// bits are permanently zero, so the scan needs no state check.
func stillUndecided(g *graph.Graph, join bitset.Mask, v int32) bool {
	if join.Test(int(v)) {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if join.Test(int(u)) {
			return false
		}
	}
	return true
}

// offerBest offers the join mask to the best-seen cache (the flat
// selection's winner), cloning it out of the worker's scratch when it
// takes the slot.
func (e *roundEngine) offerBest(seed uint64, score int64, join bitset.Mask) {
	e.best.Offer(seed, score, func() {
		e.bestJoin = append(e.bestJoin[:0], join...)
	})
}

// joinFor returns the chosen seed's join mask: the cached clone when the
// seed matches (always, for flat selection), otherwise one fresh
// re-simulation on pooled scratch (bitwise selection may pick a non-argmin
// seed), cloned out of it.
func (e *roundEngine) joinFor(seed uint64) bitset.Mask {
	if e.best.Matches(seed) {
		return e.bestJoin
	}
	ss := e.getScratch()
	e.simulate(ss, seed)
	join := append(bitset.Mask(nil), ss.join...)
	scratches.Put(ss)
	return join
}

// selectSeedTable runs the engine path for one round: score every seed
// once on the round's runner, select (flat or bitwise), and return the
// selected seed's result plus its join mask. A cancelled runner aborts
// the walk and surfaces the context error.
func (e *roundEngine) selectSeedTable(o Options) (condexp.Result, bitset.Mask, error) {
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, e.score)
	if err != nil {
		return condexp.Result{}, nil, err
	}
	return res, e.joinFor(res.Seed), nil
}

// scratches pools the workers' evaluation scratch across seeds, rounds and
// runs.
var scratches = sync.Pool{New: func() any { return new(misScratch) }}

// misScratch is one worker's reusable evaluation state. prio and the join
// mask are written for every undecided node on every seed, and read only
// at undecided nodes (a decided node's join bit stays zero from the
// owner-change reset), so they need no per-seed reset. cur is the
// worker's reader cursor over src, reused across nodes and seeds. owner
// tags the round engine the join invariant currently holds for — by id,
// not pointer, so a pooled scratch never pins a finished engine (and its
// graph) in memory.
type misScratch struct {
	src   *prg.LazySource
	cur   rng.Bits
	prio  []uint64
	join  bitset.Mask // over nodes
	owner uint64
}

// getScratch checks a worker scratch out of the pool, retargets it to the
// engine's shape, and — when it last served a different round — clears the
// join mask, restoring the invariant that a decided node's join bit reads
// zero without any per-seed reset.
func (e *roundEngine) getScratch() *misScratch {
	ss := scratches.Get().(*misScratch)
	var err error
	if ss.src == nil {
		ss.src, err = prg.NewLazySource(e.gen, e.chunkOf, e.numChunks, priorityBits)
	} else {
		err = ss.src.Retarget(e.gen, e.chunkOf, e.numChunks, priorityBits)
	}
	if err != nil {
		// Generator too short is a construction bug; make it loud.
		panic(err)
	}
	n := len(e.state)
	if cap(ss.prio) < n {
		ss.prio = make([]uint64, n)
	} else {
		ss.prio = ss.prio[:n]
	}
	grown := bitset.Words(n) > cap(ss.join)
	ss.join = ss.join.Grow(n)
	if ss.owner != e.id {
		if !grown { // a freshly made mask is already zero
			ss.join.Reset()
		}
		ss.owner = e.id
	}
	return ss
}
