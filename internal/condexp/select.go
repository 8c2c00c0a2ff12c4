package condexp

import (
	"sync"

	"parcolor/internal/par"
)

// This file implements the engines' seed selection: the shared-memory
// realization of Lemma 10's distributed selection. Every seed is scored
// exactly once into a totals vector, and both selection strategies — full
// enumeration and the bit-by-bit method of conditional expectations — read
// that vector with no further scorer invocations.

// totalsPool recycles the per-selection totals vector (one int64 per
// seed) across steps and solves: its length recurs selection after
// selection, so a warm selection allocates nothing.
var totalsPool = sync.Pool{New: func() any { return new([]int64) }}

// Select is one Lemma 10 seed selection over the 2^seedBits seed space:
// score every seed exactly once on r's workers into a pooled totals
// vector, then select by the bit-by-bit method when bitwise is set and by
// full enumeration otherwise. Workers poll the runner's cancellation
// between seeds; a cancelled runner stops scoring promptly and returns the
// context's error. Within one worker, score is called for increasing
// seeds of a contiguous range, so implementations may reuse per-worker
// scratch from a sync.Pool.
func Select(r *par.Runner, seedBits int, bitwise bool, score Scorer) (Result, error) {
	numSeeds := 1 << seedBits
	buf := totalsPool.Get().(*[]int64)
	if cap(*buf) < numSeeds {
		*buf = make([]int64, numSeeds)
	}
	totals := (*buf)[:numSeeds]
	if r.Workers(numSeeds) == 1 {
		// Inline loop: no goroutine fan-out and no escaping closure, so a
		// warm single-worker selection performs zero allocations.
		for s := 0; s < numSeeds && r.Err() == nil; s++ {
			totals[s] = score(uint64(s))
		}
	} else {
		r.ForChunked(numSeeds, func(lo, hi int) {
			for s := lo; s < hi && r.Err() == nil; s++ {
				totals[s] = score(uint64(s))
			}
		})
	}
	var res Result
	err := r.Err()
	if err == nil {
		if bitwise {
			res = SelectTotalsBitwise(totals, seedBits)
		} else {
			res = SelectTotals(totals)
		}
	}
	totalsPool.Put(buf)
	return res, err
}

// SelectTotals returns the minimum-total seed (smallest seed on ties) over
// non-empty per-seed totals: the Result full enumeration computes when
// totals[s] is seed s's score. Evals counts one evaluation per seed.
func SelectTotals(totals []int64) Result {
	arg, sum := 0, int64(0)
	for s, v := range totals {
		sum += v
		if v < totals[arg] {
			arg = s
		}
	}
	return Result{Seed: uint64(arg), Score: totals[arg], SumScores: sum, NumSeeds: len(totals), Evals: len(totals)}
}

// SelectTotalsBitwise runs the bit-by-bit method of conditional
// expectations over per-seed totals (len(totals) must be 2^seedBits):
// each level's branch sums are subset sums of the totals, so no seed is
// evaluated twice — the classical method's 2^(d+1)−2 scorer calls, which
// re-score the surviving seeds at every level, become the 2^d evaluations
// the totals already paid for. The Result (seed, score, sum, certificate)
// is identical to the classical method's over the same objective.
func SelectTotalsBitwise(totals []int64, seedBits int) Result {
	if seedBits <= 0 || seedBits > 30 || 1<<seedBits != len(totals) {
		panic("condexp: seedBits does not match the totals' seed space")
	}
	var prefix uint64
	var totalSum, chosen int64
	for level := 0; level < seedBits; level++ {
		var sums [2]int64
		for i := 0; i < 1<<(seedBits-level-1); i++ {
			base := prefix | uint64(i)<<uint(level+1)
			sums[0] += totals[base]
			sums[1] += totals[base|1<<uint(level)]
		}
		if level == 0 {
			totalSum = sums[0] + sums[1]
		}
		if sums[1] < sums[0] {
			prefix |= 1 << uint(level)
			chosen = sums[1]
		} else {
			chosen = sums[0]
		}
	}
	// At the last level each branch sum is a single seed's total, so the
	// chosen branch's sum is exactly totals[prefix].
	return Result{Seed: prefix, Score: chosen, SumScores: totalSum, NumSeeds: len(totals), Evals: len(totals)}
}
