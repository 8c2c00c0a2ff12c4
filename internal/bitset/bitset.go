// Package bitset provides the dense word-wide participant masks shared by
// every seed-selection engine: per-seed candidate/loser/win/live state
// packed 64 nodes to a machine word, so the hot loops of the Lemma 10
// derandomizers turn from branch-bound scans into memory-bound word
// operations — win counts become popcounts (Count), conflict
// elimination becomes and-not (AndNot), and commit walks only the set
// bits (ForEach).
//
// A Mask is a plain []uint64 in LSB-first bit order: bit i lives at
// word i>>6, position i&63 — the same layout rng.Bits uses for PRG
// output, so masks and expanded randomness share one storage discipline.
//
// The word loops under Count, AndNot and FromNeq32 are
// internal/kernel primitives (PopcountWords, AndNotWords, MaskNeq32),
// so they take that package's AVX2 bodies on capable amd64 hosts and
// its pure-Go references everywhere else — bit-identical either way;
// see the kernel package doc for the dispatch model.
//
// Invariant: bits at positions ≥ the mask's logical length are zero.
// Every bulk constructor (Fill, FillPar, FromNeq32, FromBools)
// maintains it; Set/Clear/SetTo callers must stay within the length they
// allocated. Count and ForEach rely on it.
//
// Concurrency: distinct bits of one word share a read-modify-write, so
// parallel writers must own word-aligned ranges. FillPar and FromNeq32
// partition on word boundaries for exactly that reason; per-bit Set/Clear
// is safe only from a single goroutine (the engines' per-seed fills, which
// parallelize across seeds, not within one).
package bitset

import (
	"math/bits"

	"parcolor/internal/kernel"
	"parcolor/internal/par"
)

// Mask is a dense bitset; see the package comment for layout and
// invariants.
type Mask []uint64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + 63) >> 6 }

// New returns a zeroed mask with room for n bits.
func New(n int) Mask { return make(Mask, Words(n)) }

// Grow returns m resized to hold n bits, reusing capacity. Contents are
// unspecified (callers reset or bulk-fill); prior tail bits may be stale.
func (m Mask) Grow(n int) Mask {
	w := Words(n)
	if cap(m) < w {
		return make(Mask, w)
	}
	return m[:w]
}

// Reset zeroes every word.
func (m Mask) Reset() {
	clear(m)
}

// Set sets bit i.
func (m Mask) Set(i int) { m[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (m Mask) Clear(i int) { m[i>>6] &^= 1 << uint(i&63) }

// SetTo writes bit i to b: the branch-free form the per-participant fill
// loops use when every bit is rewritten on every seed, so stale state
// from the previous seed never needs a separate reset pass.
func (m Mask) SetTo(i int, b bool) {
	mask := uint64(1) << uint(i&63)
	if b {
		m[i>>6] |= mask
	} else {
		m[i>>6] &^= mask
	}
}

// Test reports bit i.
func (m Mask) Test(i int) bool { return m[i>>6]>>uint(i&63)&1 == 1 }

// Count returns the number of set bits: the whole-mask popcount, via
// the dispatched kernel (AVX2 nibble-LUT on capable amd64 hosts,
// unrolled POPCNT otherwise).
func (m Mask) Count() int {
	return kernel.PopcountWords(m)
}

// Copy overwrites m with src (lengths must match).
func (m Mask) Copy(src Mask) {
	if len(m) != len(src) {
		panic("bitset: Copy length mismatch")
	}
	copy(m, src)
}

// AndNot clears every bit of m that is set in b: the elimination step
// (candidates &^ losers = winners), 64 participants per operation —
// word-wise through the dispatched and-not kernel.
func (m Mask) AndNot(b Mask) {
	if len(m) != len(b) {
		panic("bitset: AndNot length mismatch")
	}
	kernel.AndNotWords(m, b)
}

// ForEach calls fn for every set bit in ascending order, skipping zero
// words and peeling set bits with trailing-zero counts — commit loops
// visit winners without scanning the misses.
func (m Mask) ForEach(fn func(i int)) {
	for wi, w := range m {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Fill rewrites the first n bits of m as pred(i), word at a time, zeroing
// any tail bits. Single-goroutine; see FillPar for the parallel form.
func (m Mask) Fill(n int, pred func(i int) bool) {
	fillRange(m, 0, Words(n), n, pred)
}

// parWordThreshold is the mask size (in words) below which the parallel
// fills run sequentially: under ~4096 bits the goroutine fan-out costs
// more than the word loop it would split, and the seed-scoring oracles
// rebuild small masks once per evaluated seed.
const parWordThreshold = 64

// FillPar is Fill with word-aligned ranges distributed across r's
// workers (nil = process default): each worker owns whole words, so no
// two goroutines share a read-modify-write. The result is identical to
// Fill for any worker count; small masks take the sequential path
// outright. Callers inside a budget-scoped solve must pass the solve's
// runner so the fan-out honors its bound.
func (m Mask) FillPar(r *par.Runner, n int, pred func(i int) bool) {
	w := Words(n)
	if w < parWordThreshold {
		fillRange(m, 0, w, n, pred)
		return
	}
	r.ForChunkedWorker(w, func(_, wlo, whi int) {
		fillRange(m, wlo, whi, n, pred)
	})
}

// FillOnes sets the first n bits of m and zeroes the tail bits of the
// last word: the all-live reset. The whole-word interior goes through
// kernel.FillWords (AVX2 broadcast stores on capable hosts); the masked
// tail word preserves the tail-zero invariant. The pred-driven Fill and
// FillPar stay closure-bound — an arbitrary pred cannot dispatch to a
// vector body — so callers with a constant-true pred should use this.
func (m Mask) FillOnes(n int) {
	fillOnesRange(m, 0, Words(n), n)
}

// FillOnesPar is FillOnes with word-aligned ranges distributed across
// r's workers (nil = process default); identical result for any worker
// count, sequential below the small-mask threshold.
func (m Mask) FillOnesPar(r *par.Runner, n int) {
	w := Words(n)
	if w < parWordThreshold {
		fillOnesRange(m, 0, w, n)
		return
	}
	r.ForChunkedWorker(w, func(_, wlo, whi int) {
		fillOnesRange(m, wlo, whi, n)
	})
}

// fillOnesRange writes all-ones words to [wlo, whi), masking the final
// word when n is not a multiple of 64 (that word is always whi-1, since
// whi never exceeds Words(n)).
func fillOnesRange(m Mask, wlo, whi, n int) {
	if wlo >= whi {
		return
	}
	full := whi
	if whi<<6 > n {
		full--
	}
	kernel.FillWords(m[wlo:full], ^uint64(0))
	if full < whi {
		m[full] = ^uint64(0) >> uint(64-n&63)
	}
}

// fillRange rewrites words [wlo, whi) from pred over bit positions < n.
func fillRange(m Mask, wlo, whi, n int, pred func(i int) bool) {
	for wi := wlo; wi < whi; wi++ {
		base := wi << 6
		end := base + 64
		if end > n {
			end = n
		}
		var w uint64
		for i := base; i < end; i++ {
			if pred(i) {
				w |= 1 << uint(i-base)
			}
		}
		m[wi] = w
	}
}

// FromNeq32 rewrites the first len(xs) bits of m as xs[i] != sentinel —
// the colors-with-sentinel array to win-mask compaction — via
// kernel.MaskNeq32's branchless compare-and-movemask (8 int32 lanes per
// accumulation block instead of a branch per element), parallel over
// word-aligned ranges on r's workers (nil = process default; sequential
// below the small-mask threshold). m must hold Words(len(xs)) words.
func (m Mask) FromNeq32(r *par.Runner, xs []int32, sentinel int32) {
	n := len(xs)
	w := Words(n)
	if w < parWordThreshold {
		kernel.MaskNeq32(m[:w], xs, sentinel)
		return
	}
	r.ForChunkedWorker(w, func(_, wlo, whi int) {
		hi := whi << 6
		if hi > n {
			hi = n
		}
		kernel.MaskNeq32(m[wlo:whi], xs[wlo<<6:hi], sentinel)
	})
}

// FromBools rewrites the first len(bs) bits of m as bs[i] — the bridge
// from a naive oracle's bool-slice output into mask space.
func (m Mask) FromBools(bs []bool) {
	m.Fill(len(bs), func(i int) bool { return bs[i] })
}
