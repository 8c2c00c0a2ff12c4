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
// converge-cast sums the scores per seed: Select scores each seed exactly
// once, in one parallel pass over the seed space, into a pooled totals
// vector. SelectTotals (full enumeration) and SelectTotalsBitwise (the
// bit-by-bit method, which fixes the seed one bit at a time by comparing
// exact conditional branch means) then select over that vector; the
// bitwise method's branch means are subset sums of totals already paid
// for. Select keeps only scores: an engine that commits the selected
// seed's outcome (a proposal, a join set) derives it once more from
// Result.Seed after Select returns, and because the scorer is
// deterministic that is the outcome the walk scored.
//
// Every seed selection of a solve runs through Select:
//
//   - deframe's step engine: Lemma 10 over the HKNT schedule steps; a
//     seed's score is hknt.Step.Score over all participants of the
//     pooled, lazily expanded proposal.
//   - mis.Derandomized: Luby rounds; a seed's score counts the
//     participants its join mask leaves undecided.
//   - lowdeg.IterativeDerandomized: trial rounds; a seed's score is
//     −(candidates − collision losers), the losers a bitset.Mask popcount.
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

// Guarantee checks the conditional-expectations certificate: the selected
// score must be at most the ceiling of the mean.
func (r Result) Guarantee() bool {
	return r.Score <= r.MeanUpper()
}
