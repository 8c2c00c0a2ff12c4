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
// Invariant: bits at positions ≥ the mask's logical length are zero.
// Every bulk constructor (Fill, FillPar, FillOnes) maintains it;
// Set/Clear/SetTo callers must stay within the length they allocated.
// Count and ForEach rely on it.
//
// Concurrency: distinct bits of one word share a read-modify-write, so
// parallel writers must own word-aligned ranges. FillPar partitions on
// word boundaries for exactly that reason; per-bit Set/Clear is safe only
// from a single goroutine (the engines' per-seed fills, which parallelize
// across seeds, not within one).
package bitset

import (
	"math/bits"

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

// Count returns the number of set bits: the whole-mask popcount.
func (m Mask) Count() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

// Copy overwrites m with src (lengths must match).
func (m Mask) Copy(src Mask) {
	if len(m) != len(src) {
		panic("bitset: Copy length mismatch")
	}
	copy(m, src)
}

// AndNot clears every bit of m that is set in b: the elimination step
// (candidates &^ losers = winners), 64 participants per operation.
func (m Mask) AndNot(b Mask) {
	if len(m) != len(b) {
		panic("bitset: AndNot length mismatch")
	}
	for i := range m {
		m[i] &^= b[i]
	}
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

// FillSplits reports whether FillPar divides an n-bit fill across
// workers; below parWordThreshold words it fills sequentially, as Fill
// does. FillPar's pred escapes to the heap (the fan-out hands it to
// goroutines), so a caller that builds a capturing closure per call can
// fill the masks this rejects with Fill and allocate nothing.
func FillSplits(n int) bool { return Words(n) >= parWordThreshold }

// FillPar is Fill with word-aligned ranges distributed across r's
// workers (nil = process default): each worker owns whole words, so no
// two goroutines share a read-modify-write. The result is identical to
// Fill for any worker count; small masks take the sequential path
// outright. Callers inside a budget-scoped solve must pass the solve's
// runner so the fan-out honors its bound.
func (m Mask) FillPar(r *par.Runner, n int, pred func(i int) bool) {
	if !FillSplits(n) {
		m.Fill(n, pred)
		return
	}
	r.ForChunkedWorker(Words(n), func(_, wlo, whi int) {
		fillRange(m, wlo, whi, n, pred)
	})
}

// FillOnes sets the first n bits of m and zeroes the tail bits of the
// last word: the all-live reset. Whole words are stored as all-ones and
// the last partial word is masked, so the tail-zero invariant holds
// without a per-bit predicate.
func (m Mask) FillOnes(n int) {
	full := n >> 6
	for i := range m[:full] {
		m[i] = ^uint64(0)
	}
	if full < Words(n) {
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
