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
// the lowdeg instantiation of condexp.Select. Where the naive oracle
// re-proposes per seed with fresh n-sized candidate and proposal arrays
// (and re-proposes the winner after selection), the engine
//
//   - compacts the round into dense participant-index space once — the
//     live-live edge list, remaining palettes and palette-size
//     reciprocals all flattened over the participants — so every per-seed
//     structure scales with the shrinking live set instead of n,
//   - scores each seed exactly once, reusing per-worker candidate buffers
//     from a package pool shared across seeds, rounds and runs, with the
//     per-seed loser state packed into a word-wide bitset.Mask — the
//     elimination pass sets loser bits, a seed's wins are the
//     seed-invariant candidate count minus the losers' popcount (64
//     participants per word), and the per-seed reset is a word clear
//     instead of a byte-per-participant sweep, and
//   - caches the best-scoring seed's winner set during the walk (pairs
//     materialized by an and-not of the candidate mask against the loser
//     mask, only when a seed takes the best-seen slot), so the flat
//     winner's proposal is committed without recomputation.
//
// The naive path remains available via Options.NaiveScoring as the oracle
// for differential tests; both paths are bit-identical in selected seed,
// score, certificate, and final coloring.

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
	// same winner set (proposeRound's duplicate test is symmetric). One
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
	// candMask marks participants with a non-empty palette, and candCnt
	// counts them. Every such participant draws a candidate on every seed
	// — the mask and the count are seed-invariant — so a seed's wins are
	// candCnt minus the popcount of its loser bits, and the best seed's
	// winner set is one and-not: candMask &^ losers.
	candMask bitset.Mask
	candCnt  int64

	best condexp.BestSeen
	// bestWins holds the winner proposal of the best seed as (node, color)
	// pairs: materialized only when a seed takes the best-seen slot, so
	// per-seed scoring never writes a proposal at all.
	bestWins []int32
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
		}
	}
	e.candMask = bitset.New(np)
	e.candMask.Fill(np, func(i int) bool { return e.palOff[i] < e.palOff[i+1] })
	e.candCnt = int64(e.candMask.Count())
	return e
}

// score is the condexp.Scorer: run one trial for the seed with pooled
// scratch and return its −wins. The candidate draw and conflict
// resolution match proposeRound exactly — an empty palette yields
// Uncolored, and only live neighbors can collide — so the score is the
// naive scorer's −countWins.
func (e *trialEngine) score(seed uint64) int64 {
	ss := getScratch(len(e.parts))
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
	// eliminates both endpoints, exactly proposeRound's duplicate rule.
	// Loser state is one bit per participant; setting an already-set bit
	// is idempotent, so no distinct-transition bookkeeping is needed.
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
	// −wins: the seed-invariant candidate count minus the losers'
	// popcount, 64 participants per word.
	score := -(e.candCnt - int64(loser.Count()))
	e.offerBest(seed, score, cand, ss)
	scratches.Put(ss)
	return score
}

// offerBest offers the seed to the best-seen cache (the flat selection's
// winner), materializing its winner pairs when it takes the slot: winners
// = candidates &^ losers by one word-wide and-not, then a set-bit walk
// collects the (node, color) pairs.
func (e *trialEngine) offerBest(seed uint64, score int64, cand []int32, ss *trialScratch) {
	e.best.Offer(seed, score, func() {
		win := ss.winners
		win.Copy(e.candMask)
		win.AndNot(ss.loser)
		e.bestWins = e.bestWins[:0]
		win.ForEach(func(i int) {
			e.bestWins = append(e.bestWins, e.parts[i], cand[i])
		})
	})
}

// proposalFor returns the chosen seed's proposal: rebuilt from the cached
// winner pairs when the seed matches (always, for flat selection),
// otherwise one fresh re-proposal (bitwise selection may pick a non-argmin
// seed).
func (e *trialEngine) proposalFor(seed uint64) hknt.Proposal {
	if e.best.Matches(seed) {
		p := hknt.NewProposal(e.st.In.G.N())
		for i := 0; i < len(e.bestWins); i += 2 {
			p.SetWin(e.bestWins[i], e.bestWins[i+1])
		}
		return p
	}
	return proposeRound(e.st, e.parts, seed, e.round)
}

// selectSeedTable runs the engine path for one round: score every seed
// once and select (flat or bitwise). The caller fetches the winning
// proposal via proposalFor only when the round makes progress —
// zero-progress rounds take the greedy fallback.
func (e *trialEngine) selectSeedTable(o Options) (condexp.Result, error) {
	return condexp.Select(o.Par, o.SeedBits, o.Bitwise, e.score)
}

// scratches pools the workers' trial scratch across seeds, rounds and
// runs.
var scratches = sync.Pool{New: func() any { return new(trialScratch) }}

// trialScratch is one worker's reusable evaluation state: cand[i] is
// participant i's candidate this seed (rewritten in full for every seed),
// loser marks candidates eliminated by a neighbor collision (cleared per
// seed) and winners is the and-not scratch the best-seen materialization
// carves winners into.
type trialScratch struct {
	cand    []int32
	loser   bitset.Mask
	winners bitset.Mask
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
	ss.winners = ss.winners.Grow(np)
	return ss
}
