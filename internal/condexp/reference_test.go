package condexp

import "parcolor/internal/par"

// The classical scorer-driven methods of conditional expectations: the
// references Select is tested against. Both call the scorer for every
// evaluation and assume nothing about the objective. r may be nil
// (process-default parallelism, no cancellation).

// SelectSeed scores seeds [0, numSeeds) in parallel on r's workers and
// returns the minimum-score seed (smallest seed on ties, independent of
// parallelism).
func SelectSeed(r *par.Runner, numSeeds int, score Scorer) Result {
	if numSeeds <= 0 {
		panic("condexp: empty seed space")
	}
	scores := make([]int64, numSeeds)
	r.For(numSeeds, func(i int) { scores[i] = score(uint64(i)) })
	res := Result{NumSeeds: numSeeds, Evals: numSeeds, Score: scores[0]}
	for s, v := range scores {
		res.SumScores += v
		if v < res.Score {
			res.Seed, res.Score = uint64(s), v
		}
	}
	return res
}

// SelectSeedBitwise fixes seed bits LSB-first. At each level it computes
// the exact conditional mean of both branches (by enumerating completions)
// and keeps the branch with the smaller mean, ties to bit 0. The final
// seed's score is at most the global mean, by induction on levels: the
// chosen branch's conditional mean never exceeds the current mean.
//
// The total number of scorer calls is Σ_{i=1..d} 2^{d-i+1} = 2^(d+1)−2:
// surviving seeds are re-scored at every level. At the last level each
// branch has a single completion, so the chosen branch's sum already is
// the selected seed's score — no final re-evaluation is needed.
func SelectSeedBitwise(r *par.Runner, seedBits int, score Scorer) Result {
	if seedBits <= 0 || seedBits > 30 {
		panic("condexp: seedBits out of range")
	}
	d := seedBits
	var prefix uint64
	evals := 0
	var totalSum, chosen int64
	for level := 0; level < d; level++ {
		rem := d - level - 1 // bits still free after fixing this one
		n := 1 << rem
		branch := func(b uint64) int64 {
			base := prefix | b<<uint(level)
			return r.ReduceInt(n, func(i int) int64 {
				return score(base | uint64(i)<<uint(level+1))
			})
		}
		sum0, sum1 := branch(0), branch(1)
		evals += 2 * n
		if level == 0 {
			totalSum = sum0 + sum1
		}
		if sum1 < sum0 {
			prefix |= 1 << uint(level)
			chosen = sum1
		} else {
			chosen = sum0
		}
	}
	return Result{Seed: prefix, Score: chosen, SumScores: totalSum, NumSeeds: 1 << d, Evals: evals}
}
