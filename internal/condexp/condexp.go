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
// Two scoring architectures coexist:
//
//   - The naive Scorer path (SelectSeed, SelectSeedBitwise) re-invokes an
//     opaque score(seed) callback for every evaluation. It is simple,
//     assumes nothing about the objective, and serves as the oracle the
//     optimized path is differentially tested against. SelectSeed
//     enumerates all seeds once; SelectSeedBitwise fixes the seed one bit
//     at a time by comparing exact conditional branch means, re-evaluating
//     surviving seeds at every level (~2^(d+1) scorer calls in total).
//
//   - The contribution-table path (BuildTable, ContribTable.SelectSeed,
//     ContribTable.SelectSeedBitwise) mirrors the paper's distributed
//     implementation: the objective decomposes as score(seed) = Σ_c
//     contrib(c, seed) over machine-local chunks, each (seed, chunk)
//     contribution is computed exactly once into a flat seed-major
//     [numSeeds × numChunks] table by one parallel pass over the seed
//     space, the per-seed totals are aggregated by a converge-cast that
//     reduces each seed's contiguous row, and both selection strategies
//     become pure table aggregation — the bitwise method's branch means
//     are subset sums of totals the build already paid for.
//
// Select and SelectNaive are the engines' entry points to the two paths:
// one cancel-aware selection over 2^seedBits seeds, flat or bitwise.
// Table storage lives in a package-level sync.Pool: BuildTable draws from
// it and ContribTable.Release returns to it, so Select owns a table's
// whole lifetime.
//
// Layout invariants of the seed-major table:
//
//   - Contrib[s*NumChunks+c] is chunk c's contribution to seed s: one
//     seed's row is one contiguous unit-stride block of the grid.
//   - Build hands each fill ITS OWN in-place row (a capacity-capped slice
//     of Contrib), so engines write their popcounts straight into final
//     cells: no per-worker staging row, no stride-NumSeeds scatter. A
//     ChunkFiller must write every cell of the row it is handed — pooled
//     grids are not zeroed between builds.
//   - Totals[s] = kernel.Sum(row s), a blocked unit-stride reduce; exact
//     int64 addition makes every association order — the blocking, a
//     sequential scan, or the MPC aggregation tree — bit-identical, so
//     the table stays interchangeable with the MPC-faithful oracle.
//   - BuildChunkMajorOracle retains the retired chunk-major layout purely
//     as the differential-test reference; the suites pin every engine's
//     table to it cell-for-transposed-cell.
//
// Both paths return bit-identical Results (seed, score, sum, certificate)
// on the same objective; they differ only in Evals, the scorer-invocation
// count. Tests check the agreement and the guarantee for both.
//
// Who uses the table engine — every seed selection in the repository runs
// through ContribTable, each with its naive-Scorer oracle kept for
// differential tests. All of them keep their per-seed participant state
// in internal/bitset masks (win/loser/join sets packed 64 participants
// per word), read chunk contributions off as popcounts over index ranges
// written directly into their in-place seed rows, and bottom out in
// internal/kernel's unit-stride loops (Sum for row totals, Add for tree
// combines, Transpose for the MPC root's assembly, MaskNeq32 under the
// bitset compaction):
//
//   - deframe.stepEngine: Lemma 10 over the HKNT schedule steps; win
//     steps gather the proposal's win mask into dense participant space
//     and popcount each chunk, SSP steps count failures per participant,
//     both with pooled per-worker lazy PRG sources that compute only the
//     chunk bits a draw reads (Options.NaiveScoring is the oracle).
//   - mis.Derandomized: Luby rounds; the join set is a node mask, each
//     seed's still-undecided outcomes gather into a dense mask, chunk
//     counts are popcounts, with lazy PRG chunk views read for only the
//     live nodes (mis.Options.NaiveScoring).
//   - lowdeg.IterativeDerandomized: trial rounds; collision losers are a
//     dense mask, wins = seed-invariant candidate counts − loser
//     popcounts, the best seed's winners materialize by one and-not
//     (lowdeg.Options.NaiveScoring).
//   - mpc.DistributedSelectSeedRows: the same converge-cast executed as an
//     MPC protocol — simulated machines fill distributed chunk-rows
//     (packing a per-seed win bit alongside each score, reused at commit),
//     the aggregation tree folds row segments with kernel.Add, and the
//     root keeps its direct children's subtree rows as separate chunks,
//     assembles the seed-major table by kernel.Transpose, and selects by
//     ContribTable aggregation (mpc.DistributedSelectSeed is the
//     scalar-batched oracle).
//
// ScoreChunks is the shared chunking policy: all shared-memory call sites
// size their tables participant-proportionally through it.
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
