package condexp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"parcolor/internal/par"
)

// This file implements the engines' seed selection: the shared-memory
// realization of Lemma 10's distributed selection. Seeds are scored in
// increasing order into a totals vector, and both selection strategies —
// full enumeration and the bit-by-bit method of conditional expectations —
// read that vector with no further scorer invocations.

// blocksPerWorker is how many equal seed blocks a multi-worker walk cuts
// per worker: enough that a worker the host slows holds up at most one
// small block, and that workers stay close to the walk's front when it
// stops at the floor.
const blocksPerWorker = 8

// selectScratch is one selection's pooled state: the totals vector (one
// int64 per seed), the block offsets a multi-worker walk claims, and the
// smallest seed found so far whose score equals the floor. Their sizes
// recur selection after selection, so a warm selection allocates nothing
// for them.
type selectScratch struct {
	totals    []int64
	offsets   []int32
	floorSeed atomic.Int64
}

var selectPool = sync.Pool{New: func() any { return new(selectScratch) }}

// Select is one Lemma 10 seed selection over the 2^seedBits seed space.
// It scores seeds in increasing order on r's workers into a pooled totals
// vector, then selects by the bit-by-bit method when bitwise is set and
// by full enumeration otherwise.
//
// floor must be at most every seed's score (the objective's least
// possible value: 0 failures, or minus the participant count when every
// participant wins). Flat selection commits the minimum and breaks ties
// to the smallest seed, so the first seed whose score equals floor is its
// result: the walk stops there, and the Result is the one full
// enumeration returns, with AtFloor set and the accounting cut to seeds
// 0..Seed (see Result). Bitwise selection ignores floor and scores every
// seed, because its branch sums need every total. A score below floor is
// a caller bug and panics.
//
// One worker scores the seeds in order inline. Several workers claim
// equal blocks of consecutive seeds from an atomic cursor in increasing
// order (par.Runner.ForRanges), share the smallest floor seed found so
// far, and skip every seed above it; every seed below the final floor
// seed is still scored, so the Result does not depend on the worker
// count. Workers poll the runner's cancellation between seeds; a
// cancelled runner stops scoring promptly and returns the context's
// error. Within one block, score is called for increasing seeds on one
// goroutine, so implementations may reuse per-worker scratch from a
// sync.Pool.
func Select(r *par.Runner, seedBits int, bitwise bool, floor int64, score Scorer) (Result, error) {
	numSeeds := 1 << seedBits
	sc := selectPool.Get().(*selectScratch)
	if cap(sc.totals) < numSeeds {
		sc.totals = make([]int64, numSeeds)
	}
	totals := sc.totals[:numSeeds]
	floorSeed := numSeeds // none found
	if w := r.Workers(numSeeds); w == 1 {
		// Inline loop: no goroutine fan-out and no escaping closure, so a
		// warm single-worker selection performs zero allocations.
		for s := 0; s < numSeeds && r.Err() == nil; s++ {
			v := score(uint64(s))
			totals[s] = v
			if !bitwise && v <= floor {
				checkFloor(v, floor)
				floorSeed = s
				break
			}
		}
	} else {
		blocks := min(numSeeds, blocksPerWorker*w)
		offsets := sc.offsets[:0]
		for i := 0; i <= blocks; i++ {
			offsets = append(offsets, int32(i*numSeeds/blocks))
		}
		sc.offsets = offsets
		best := &sc.floorSeed
		best.Store(int64(numSeeds))
		r.ForRanges(offsets, func(lo, hi int) {
			for s := lo; s < hi && int64(s) < best.Load() && r.Err() == nil; s++ {
				v := score(uint64(s))
				totals[s] = v
				if !bitwise && v <= floor {
					checkFloor(v, floor)
					for cur := best.Load(); int64(s) < cur; cur = best.Load() {
						if best.CompareAndSwap(cur, int64(s)) {
							break
						}
					}
					return
				}
			}
		})
		floorSeed = int(best.Load())
	}
	var res Result
	err := r.Err()
	if err == nil {
		switch {
		case bitwise:
			res = SelectTotalsBitwise(totals, seedBits)
		case floorSeed < numSeeds:
			// Every seed below floorSeed was scored and none reached the
			// floor, so floorSeed is the argmin with the smallest seed on
			// ties: the seed full enumeration selects.
			res = SelectTotals(totals[:floorSeed+1])
			res.AtFloor = true
		default:
			res = SelectTotals(totals)
		}
	}
	selectPool.Put(sc)
	return res, err
}

// checkFloor panics when a score v that reached the floor lies below it:
// the caller's floor was not a lower bound, and stopping at it could
// commit a seed other than the argmin.
func checkFloor(v, floor int64) {
	if v < floor {
		panic(fmt.Sprintf("condexp: score %d below the objective's floor %d", v, floor))
	}
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
