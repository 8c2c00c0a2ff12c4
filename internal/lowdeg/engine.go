package lowdeg

import (
	"sync"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/hknt"
	"parcolor/internal/rng"
)

// This file is the seed-selection engine for the iterative trial rounds:
// the lowdeg instantiation of condexp.Select, and the trial selector
// every run uses. Where a naive scorer re-proposes per seed with fresh
// n-sized candidate and proposal arrays, the engine
//
//   - compacts the round into dense participant-index space once — the
//     live-live edge list, remaining palettes and palette-size
//     reciprocals all flattened over the participants — so every per-seed
//     structure scales with the shrinking live set instead of n,
//   - scores seeds in increasing order, each at most once, stopping a
//     flat walk at the first seed where every candidate wins (the
//     objective's floor, −candCnt), and reuses per-worker candidate
//     buffers from a package pool shared across seeds, rounds and runs,
//     with the per-seed loser state packed into a word-wide bitset.Mask —
//     the elimination pass sets loser bits, a seed's wins are the
//     seed-invariant candidate count minus the losers' popcount (64
//     participants per word), and the per-seed reset is a word clear
//     instead of a byte-per-participant sweep, and
//   - after selection, reruns the trial for the selected seed once on
//     pooled scratch and writes its winners into the proposal: the trial
//     is pure in (state, seed), so they are the winners the walk scored.
//
// The tests' oracle (oracle_test.go) is the naive scorer; the engine is
// bit-identical to it in selected seed, score, certificate, and final
// coloring.

// trialSelector selects one trial round's seed and returns the selected
// seed's result and proposal. A selected score of 0 means no seed colors
// anything: the round takes the greedy fallback, so the selector builds
// no proposal. A cancelled runner surfaces the context error.
// selectByEngine is the one IterativeDerandomized runs.
type trialSelector func(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, hknt.Proposal, error)

// selectByEngine is the trialSelector of every run: score the seeds in
// order on the round's runner, up to the first where every candidate wins
// when flat and all of them when bitwise, select, and return the selected
// seed's result plus its proposal.
func selectByEngine(st *hknt.State, parts []int32, round uint64, o Options) (condexp.Result, hknt.Proposal, error) {
	e := newTrialEngine(st, parts, round)
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, -e.candCnt, e.score)
	if err != nil || res.Score == 0 {
		return res, hknt.Proposal{}, err
	}
	return res, e.proposalFor(res.Seed), nil
}

// trialEngine scores one trial round's seed space incrementally.
type trialEngine struct {
	st    *hknt.State
	parts []int32
	round uint64

	// edges lists the round's live-live edges once each, as flat pairs of
	// participant indices. Only live nodes can hold a candidate — a
	// non-live neighbor's candidate is always Uncolored — so conflict
	// resolution is one symmetric elimination pass over these edges: half
	// the memory traffic of scanning both endpoints' adjacency, with the
	// same winner set (the oracle's duplicate test is symmetric). One
	// O(Σdeg) build per round amortized across every seed.
	edges []int32
	// palOff/palFlat is the participants' remaining palettes flattened to
	// one contiguous array: participant i draws from
	// palFlat[palOff[i]:palOff[i+1]] (palettes are fixed for the round).
	palOff  []int32
	palFlat []int32
	// divs[i] is the precomputed reciprocal of participant i's palette
	// size, so the per-(seed, participant) candidate reduction needs no
	// hardware division.
	divs []rng.Divisor
	// candCnt counts the participants with a non-empty palette. Every such
	// participant draws a candidate on every seed, so a seed's wins are
	// candCnt minus the popcount of its loser bits.
	candCnt int64
}

func newTrialEngine(st *hknt.State, parts []int32, round uint64) *trialEngine {
	e := &trialEngine{st: st, parts: parts, round: round}
	g := st.In.G
	np := len(parts)
	// indexOf inverts parts: participant index of each live node.
	indexOf := make([]int32, g.N())
	for i, v := range parts {
		indexOf[v] = int32(i)
	}
	e.palOff = make([]int32, np+1)
	for i, v := range parts {
		e.palOff[i+1] = e.palOff[i] + int32(len(st.Rem[v]))
	}
	e.palFlat = make([]int32, 0, e.palOff[np])
	e.divs = make([]rng.Divisor, np)
	for i, v := range parts {
		for _, u := range g.Neighbors(v) {
			if u > v && st.Live(u) {
				e.edges = append(e.edges, int32(i), indexOf[u])
			}
		}
		e.palFlat = append(e.palFlat, st.Rem[v]...)
		if d := len(st.Rem[v]); d > 0 {
			e.divs[i] = rng.NewDivisor(uint64(d))
			e.candCnt++
		}
	}
	return e
}

// trial runs one trial for the seed on the worker's scratch: ss.cand
// gets every participant's candidate and ss.loser the candidates a
// neighbor collision eliminates. The draw and the conflict rule match the
// oracle's proposeRound exactly — an empty palette yields Uncolored, and
// only live neighbors can collide.
func (e *trialEngine) trial(ss *trialScratch, seed uint64) {
	cand, parts := ss.cand, e.parts
	// Pass 1: draw candidates into dense participant-index space.
	for i := range parts {
		plo, phi := e.palOff[i], e.palOff[i+1]
		if plo == phi {
			cand[i] = d1lc.Uncolored
			continue
		}
		h := rng.Hash3(seed, uint64(parts[i]), e.round)
		cand[i] = e.palFlat[plo+int32(e.divs[i].Mod(h))]
	}
	// Pass 2: symmetric elimination over the live edge list — a collision
	// eliminates both endpoints. Loser state is one bit per participant;
	// setting an already-set bit is idempotent, so no distinct-transition
	// bookkeeping is needed.
	loser := ss.loser
	loser.Reset()
	edges := e.edges
	for k := 0; k < len(edges); k += 2 {
		a, b := edges[k], edges[k+1]
		if ca := cand[a]; ca != d1lc.Uncolored && ca == cand[b] {
			loser.Set(int(a))
			loser.Set(int(b))
		}
	}
}

// score is the condexp.Scorer: run one trial for the seed with pooled
// scratch and return its −wins, the seed-invariant candidate count minus
// the losers' popcount (64 participants per word).
func (e *trialEngine) score(seed uint64) int64 {
	ss := getScratch(len(e.parts))
	e.trial(ss, seed)
	score := -(e.candCnt - int64(ss.loser.Count()))
	scratches.Put(ss)
	return score
}

// proposalFor reruns the trial for the selected seed on pooled scratch
// and returns its proposal: every candidate that lost no collision wins.
func (e *trialEngine) proposalFor(seed uint64) hknt.Proposal {
	ss := getScratch(len(e.parts))
	e.trial(ss, seed)
	p := hknt.NewProposal(e.st.In.G.N())
	for i, c := range ss.cand {
		if c != d1lc.Uncolored && !ss.loser.Test(i) {
			p.SetWin(e.parts[i], c)
		}
	}
	scratches.Put(ss)
	return p
}

// scratches pools the workers' trial scratch across seeds, rounds and
// runs.
var scratches = sync.Pool{New: func() any { return new(trialScratch) }}

// trialScratch is one worker's reusable evaluation state: cand[i] is
// participant i's candidate this seed (rewritten in full for every seed)
// and loser marks candidates eliminated by a neighbor collision (cleared
// per seed).
type trialScratch struct {
	cand  []int32
	loser bitset.Mask
}

// getScratch checks a worker scratch out of the pool and resizes it to np
// participants. Every field is fully rewritten (cand) or reset (loser)
// per seed, so no cross-round state can leak.
func getScratch(np int) *trialScratch {
	ss := scratches.Get().(*trialScratch)
	if cap(ss.cand) < np {
		ss.cand = make([]int32, np)
	} else {
		ss.cand = ss.cand[:np]
	}
	ss.loser = ss.loser.Grow(np)
	return ss
}
