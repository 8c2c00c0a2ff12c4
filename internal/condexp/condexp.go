// Package condexp implements the method of conditional expectations that
// Lemma 10 uses to select a PRG seed.
//
// A selection operates on an integer-valued objective ("score": e.g. the
// number of nodes failing the strong success property under a given
// seed) over an enumerable seed space, and returns a seed whose score is
// at most the mean over the space — the exact guarantee the paper's
// Lemma 10 derives from E[failures] ≤ nG/2 + nG·Δ^{−11τ}.
//
// Select is the one entry point. It mirrors the paper's distributed
// implementation, where machines score their nodes for every seed and a
// converge-cast sums the scores per seed: Select scores seeds at most
// once each, in increasing order, into a pooled totals vector; several
// workers claim blocks of consecutive seeds from an atomic cursor.
// SelectTotals (full enumeration) and SelectTotalsBitwise (the bit-by-bit
// method, which fixes the seed one bit at a time by comparing exact
// conditional branch means) then select over that vector; the bitwise
// method's branch means are subset sums of totals already paid for. The
// caller passes the objective's floor, a value no seed scores below, and
// flat selection stops at the first seed that scores it: with ties broken
// to the smallest seed, that seed is the argmin full enumeration returns,
// and Score == floor is a stronger certificate than the mean bound.
// Bitwise selection scores every seed. Select keeps only scores: an
// engine that commits the selected seed's outcome (a proposal, a join
// set) derives it once more from Result.Seed after Select returns, and
// because the scorer is deterministic that is the outcome the walk
// scored.
//
// Every seed selection of a solve runs through Select:
//
//   - deframe's step engine: Lemma 10 over the HKNT schedule steps; a
//     seed's score is hknt.Step.Score over all participants of the
//     pooled, lazily expanded proposal, and the floor hknt.Step.Floor
//     (0 failures with an SSP, −participants without one).
//   - mis.Derandomized: Luby rounds; a seed's score counts the
//     participants its join mask leaves undecided (floor 0).
//   - lowdeg.IterativeDerandomized: trial rounds; a seed's score is
//     −(candidates − collision losers), the losers a bitset.Mask popcount
//     (floor −candidates).
//
// Each of those packages keeps a naive scorer in its oracle_test.go (a
// fresh eager PRG expansion and fresh buffers per seed); its tests
// compare the engine's score with the naive one seed by seed and select
// over both through Select. This package's tests pin Select against the
// classical scorer-driven methods (reference_test.go), including the
// bitwise method's 2^(d+1)−2 scorer calls.
//
// mpc.DistributedSelectSeedRows runs the converge-cast as an MPC protocol
// and selects over the root's summed row with SelectTotals. Section 6's
// hash selection for LowSpacePartition does not use this package:
// sparsify runs its own seed search.
package condexp

// Scorer evaluates the objective for one seed. Implementations must be
// safe for concurrent calls with distinct seeds and deterministic.
type Scorer func(seed uint64) int64

// Result reports the selected seed and the evidence for the guarantee.
//
// AtFloor marks a flat selection that stopped at Seed, the first seed
// whose score equals the objective's floor. SumScores, NumSeeds and Evals
// then cover seeds 0..Seed only, the seeds a one-worker walk scores
// (several workers may score a few seeds past Seed, which the Result
// ignores), so MeanUpper is the ceiling of their mean, not of the mean
// over the whole seed space. The certificate that holds is Score ==
// floor, hence Score ≤ every seed's score: stronger than Lemma 10's mean
// bound, which would need the unscored seeds' sum to state.
type Result struct {
	Seed      uint64
	Score     int64
	SumScores int64 // over the seeds evaluated
	NumSeeds  int   // seeds SumScores covers
	Evals     int   // scorer invocations of a one-worker walk
	AtFloor   bool
}

// MeanUpper returns ⌈SumScores/NumSeeds⌉, an upper bound certificate:
// Score ≤ mean ≤ MeanUpper (over seeds 0..Seed when AtFloor).
func (r Result) MeanUpper() int64 {
	if r.NumSeeds == 0 {
		return 0
	}
	return (r.SumScores + int64(r.NumSeeds) - 1) / int64(r.NumSeeds)
}

// Guarantee checks the conditional-expectations certificate: the selected
// score must be at most the ceiling of the mean. When AtFloor, that mean
// covers seeds 0..Seed only, and the certificate that matters is Score ==
// floor, which the caller checks against the floor it passed.
func (r Result) Guarantee() bool {
	return r.Score <= r.MeanUpper()
}
