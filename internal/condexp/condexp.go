// Package condexp implements the method of conditional expectations used
// by Lemma 10 (PRG seed selection) and Section 6 (hash selection for
// LowSpacePartition).
//
// Every entry point operates on an integer-valued objective ("score": e.g.
// the number of nodes failing the strong success property under a given
// seed) over an enumerable seed space, and returns a seed whose score is
// at most the mean over the space — the exact guarantee the paper's
// Lemma 10 derives from E[failures] ≤ nG/2 + nG·Δ^{−11τ}.
//
// Two scoring paths coexist:
//
//   - The naive path (SelectSeed, SelectSeedBitwise) re-invokes the
//     score(seed) callback for every evaluation. It is simple, assumes
//     nothing about the objective, and serves as the oracle the engines'
//     path is differentially tested against. SelectSeed enumerates all
//     seeds once; SelectSeedBitwise fixes the seed one bit at a time by
//     comparing exact conditional branch means, re-evaluating surviving
//     seeds at every level (2^(d+1)−2 scorer calls in total).
//
//   - The totals path (Select) mirrors the paper's distributed
//     implementation: machines score their nodes for every seed and a
//     converge-cast sums the scores per seed. Select scores each seed
//     exactly once, in one parallel pass over the seed space, into a
//     pooled totals vector; SelectTotals and SelectTotalsBitwise then
//     select over that vector, the bitwise method's branch means being
//     subset sums of totals already paid for.
//
// Select and SelectNaive are the engines' entry points to the two paths:
// one cancel-aware selection over 2^seedBits seeds, flat or bitwise. Both
// return bit-identical Results (seed, score, sum, certificate) on the
// same objective; they differ only in Evals, the scorer-invocation count.
//
// Every seed selection in the repository runs through Select, each with
// its naive-Scorer oracle kept for differential tests:
//
//   - deframe.stepEngine: Lemma 10 over the HKNT schedule steps; a seed's
//     score is hknt.Step.ScoreChunk over all participants of the pooled,
//     lazily expanded proposal (Options.NaiveScoring is the oracle).
//   - mis.Derandomized: Luby rounds; a seed's score counts the
//     participants its join mask leaves undecided
//     (mis.Options.NaiveScoring).
//   - lowdeg.IterativeDerandomized: trial rounds; a seed's score is
//     −(candidates − collision losers), the losers a bitset.Mask popcount
//     (lowdeg.Options.NaiveScoring).
//
// mpc.DistributedSelectSeedRows runs the converge-cast as an MPC protocol
// and selects over the root's summed row with SelectTotals.
package condexp

import (
	"parcolor/internal/par"
)

// Scorer evaluates the objective for one seed. Implementations must be
// safe for concurrent calls with distinct seeds and deterministic.
type Scorer func(seed uint64) int64

// Result reports the selected seed and the evidence for the guarantee.
type Result struct {
	Seed      uint64
	Score     int64
	SumScores int64 // over all seeds evaluated
	NumSeeds  int
	Evals     int // number of scorer invocations
}

// MeanUpper returns ⌈SumScores/NumSeeds⌉, an upper bound certificate:
// Score ≤ mean ≤ MeanUpper.
func (r Result) MeanUpper() int64 {
	if r.NumSeeds == 0 {
		return 0
	}
	return (r.SumScores + int64(r.NumSeeds) - 1) / int64(r.NumSeeds)
}

// SelectSeed enumerates seeds [0, numSeeds) in parallel on r's workers and
// returns the minimum-score seed (smallest seed on ties, independent of
// parallelism). r may be nil (process-default parallelism, no
// cancellation).
func SelectSeed(r *par.Runner, numSeeds int, score Scorer) Result {
	if numSeeds <= 0 {
		panic("condexp: empty seed space")
	}
	scores := make([]int64, numSeeds)
	r.For(numSeeds, func(i int) { scores[i] = score(uint64(i)) })
	min, arg := r.ReduceMin(numSeeds, func(i int) int64 { return scores[i] })
	var sum int64
	for _, s := range scores {
		sum += s
	}
	return Result{Seed: uint64(arg), Score: min, SumScores: sum, NumSeeds: numSeeds, Evals: numSeeds}
}

// SelectSeedBitwise fixes seed bits LSB-first. At each level it computes
// the exact conditional mean of both branches (by enumerating completions)
// and keeps the branch with the smaller mean, ties to bit 0. The final
// seed's score is at most the global mean, by induction on levels: the
// chosen branch's conditional mean never exceeds the current mean.
//
// The total number of scorer calls is Σ_{i=1..d} 2^{d-i+1} = 2^(d+1)−2:
// the same order as full enumeration, but structured exactly as the method
// of conditional expectations, which is what the framework's distributed
// implementation mirrors round by round. At the last level each branch has
// a single completion, so the chosen branch's sum already is the selected
// seed's score — no final re-evaluation is needed.
//
// r may be nil (process-default parallelism, no cancellation).
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

// Guarantee checks the conditional-expectations certificate: the selected
// score must be at most the ceiling of the mean.
func (r Result) Guarantee() bool {
	return r.Score <= r.MeanUpper()
}
