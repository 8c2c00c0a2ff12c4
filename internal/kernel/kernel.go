// Package kernel holds the allocation-free, unit-stride inner loops the
// seed-selection stack bottoms out in:
//
//   - Add is the tree combine: a child's row segment folded into its
//     parent's accumulator during the pipelined converge-cast
//     (mpc.DistributedSelectSeedRows).
//   - MaskNeq32 is the compare-and-accumulate kernel: int32 lanes compared
//     against a sentinel and the movemask accumulated eight lanes at a
//     time into LSB-first words (bitset.FromNeq32's word fill).
//   - PopcountWords reduces a word stream to its set-bit count
//     (bitset.Count, the lowdeg engine's per-seed loser count).
//   - AndNotWords clears dst bits set in src, word-wise (bitset.AndNot,
//     the winners = candidates &^ losers elimination step).
//   - FillWords broadcasts one value into a word run (bitset.FillOnes's
//     whole-word interior — the engines' all-live mask resets).
//
// # Dispatch model
//
// Every kernel is one exported front door that selects between two
// interchangeable bodies:
//
//   - a hand-vectorized AVX2 implementation (kernel_amd64.s), compiled on
//     amd64 without the noasm tag and selected at process start iff the
//     CPU and OS support AVX2 (CPUID leaf 7 + OSXSAVE/XGETBV, see
//     dispatch_amd64.go), and
//   - the pure-Go reference bodies (generic.go), which compile everywhere
//     and are the only bodies on non-amd64 targets or under the noasm
//     build tag.
//
// Forcing the fallback: build with `-tags noasm` (removes the assembly
// entirely — the CI leg that keeps that path green), or flip paths inside
// one test binary with SetAVX2ForTest (how the differential suites pin
// both bodies bit-identical in the same run). UsingAVX2 reports which
// path the front doors currently take.
//
// # Determinism under lane reassociation
//
// The dispatch is invisible to callers because every kernel is exact:
// int64 addition wraps (no rounding), so Add's four-way unroll and the
// AVX2 four-lane vpaddq folds produce the same bits as a strict
// left-to-right walk, and the popcount's per-lane partial counts sum to
// the same total in any order; the compare, and-not and fill kernels are
// pure bit movement with one defined answer per lane. That is the same
// exactness argument that keeps the shared-memory totals equal to the MPC
// tree-order totals, extended down to SIMD lane order — nothing here would
// survive a float accumulator.
//
// Differential tests pin each kernel to a naive reference on both
// dispatch paths; fuzzing covers ragged lengths, unaligned tails and
// aliasing-adjacent slices; microbenchmarks feed BENCH_kernel.json via
// `make bench-kernel` and gate via `make bench-kernel-diff`.
package kernel

import "fmt"

// Dispatch thresholds: below these sizes the front doors take the pure-Go
// body unconditionally — the vector setup (ymm zeroing, horizontal
// reduction, vzeroupper) costs more than the handful of scalar ops it
// would replace, and latency-bound call sites (short segments, few-word
// masks) sit exactly there. The assembly bodies themselves handle every
// length ≥ 0; the differential suites call them directly below these
// cutoffs.
const (
	minAVX2Elems = 16 // Add: int64 elements (two 8-element unrolled steps)
	minAVX2Lanes = 64 // MaskNeq32: int32 lanes (one full output word)
	minAVX2Words = 8  // PopcountWords/AndNotWords/FillWords: 64-bit words
)

// Add folds src into dst elementwise: dst[i] += src[i]. Lengths must
// match. Exact integer addition makes the result identical to the
// sequential loop under any unroll or lane order.
func Add(dst, src []int64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("kernel: Add: length mismatch: len(dst)=%d len(src)=%d", len(dst), len(src)))
	}
	if useAVX2 && len(dst) >= minAVX2Elems {
		addAVX2(dst, src)
		return
	}
	addGeneric(dst, src)
}

// MaskNeq32 writes the compare movemask of xs against sentinel into dst:
// bit i of the LSB-first word stream is xs[i] != sentinel, tail bits of
// the last word zero. dst must hold at least (len(xs)+63)/64 words; those
// words are fully rewritten and any further words are untouched.
func MaskNeq32(dst []uint64, xs []int32, sentinel int32) {
	if need := (len(xs) + 63) >> 6; len(dst) < need {
		panic(fmt.Sprintf("kernel: MaskNeq32: dst too short: len(dst)=%d, need %d words for len(xs)=%d", len(dst), need, len(xs)))
	}
	if useAVX2 && len(xs) >= minAVX2Lanes {
		maskNeq32AVX2(dst, xs, sentinel)
		return
	}
	maskNeq32Generic(dst, xs, sentinel)
}

// PopcountWords returns the total number of set bits across ws — the
// whole-mask popcount under bitset.Count.
func PopcountWords(ws []uint64) int {
	if useAVX2 && len(ws) >= minAVX2Words {
		return popcountWordsAVX2(ws)
	}
	return popcountWordsGeneric(ws)
}

// AndNotWords clears every bit of dst that is set in src: dst[i] &^=
// src[i]. Lengths must match. This is bitset.AndNot's word loop — the
// winners = candidates &^ losers elimination — as a dispatchable kernel.
func AndNotWords(dst, src []uint64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("kernel: AndNotWords: length mismatch: len(dst)=%d len(src)=%d", len(dst), len(src)))
	}
	if useAVX2 && len(dst) >= minAVX2Words {
		andNotWordsAVX2(dst, src)
		return
	}
	andNotWordsGeneric(dst, src)
}

// FillWords stores val into every word of dst — the broadcast store
// under bitset.FillOnes's whole-word interior (the engines' all-live
// mask resets). Pure stores with one defined answer per word, so the
// dispatch is invisible like every other kernel's.
func FillWords(dst []uint64, val uint64) {
	if useAVX2 && len(dst) >= minAVX2Words {
		fillWordsAVX2(dst, val)
		return
	}
	fillWordsGeneric(dst, val)
}
