package rng

import "math/bits"

// Divisor computes exact 64-bit remainders by a fixed divisor using
// multiplications instead of hardware division (Lemire, Kaser and Kurz,
// "Faster remainders when the divisor is a constant"): the seed-scoring
// loops reduce one fresh hash per (seed, node) by the node's palette size,
// which is fixed for a whole round, so a precomputed 128-bit reciprocal
// turns every reduction's DIVQ into a short multiply chain. Mod(h) equals
// h % d for every h — the derandomizers rely on that bit-identity.
type Divisor struct {
	d        uint64
	mHi, mLo uint64 // ⌈2^128 / d⌉
}

// NewDivisor prepares the reciprocal for d > 0.
func NewDivisor(d uint64) Divisor {
	if d == 0 {
		panic("rng: zero divisor")
	}
	if d == 1 {
		return Divisor{d: 1}
	}
	// ⌈2^128/d⌉ = ⌊(2^128−1)/d⌋ + 1 for every d ≥ 2 (d divides 2^128 only
	// for powers of two, where the identity also holds).
	hi := ^uint64(0) / d
	lo, _ := bits.Div64(^uint64(0)%d, ^uint64(0), d)
	var carry uint64
	lo, carry = bits.Add64(lo, 1, 0)
	hi += carry
	return Divisor{d: d, mHi: hi, mLo: lo}
}

// Mod returns h % d.
func (dv Divisor) Mod(h uint64) uint64 {
	if dv.d == 1 {
		return 0
	}
	// lowbits = (M·h) mod 2^128, with M = ⌈2^128/d⌉.
	lbHi, lbLo := bits.Mul64(dv.mLo, h)
	lbHi += dv.mHi * h
	// h mod d = ⌊(lowbits·d) / 2^128⌋.
	aHi, aLo := bits.Mul64(lbHi, dv.d)
	bHi, _ := bits.Mul64(lbLo, dv.d)
	_, carry := bits.Add64(aLo, bHi, 0)
	return aHi + carry
}
