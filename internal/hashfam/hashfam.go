// Package hashfam implements the explicit bounded-independence hash
// families used throughout the derandomization pipeline:
//
//   - GF2Linear: h(x) = <a, x> ⊕ c over GF(2). Pairwise-independent over
//     one output bit, with the crucial property that conditional collision
//     probabilities given a seed-bit prefix are exactly 0, 1, or 1/2 — the
//     exactly-computable estimator behind the deterministic bit-by-bit
//     partitioning of Section 6 (Lemma 23).
//   - Poly: degree-(k−1) polynomial evaluation over the Mersenne prime
//     p = 2^61 − 1, the standard k-wise independent family; it is the
//     expansion core of the k-wise PRG in package prg.
package hashfam

import "math/bits"

// MersennePrime61 is 2^61 − 1, the field modulus of the Poly family.
const MersennePrime61 = (1 << 61) - 1

// mulmod61 returns a*b mod 2^61−1 using 128-bit intermediate arithmetic and
// Mersenne folding.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = hi*8*2^61 + lo  ⇒ fold with 2^61 ≡ 1.
	res := (lo & MersennePrime61) + (lo >> 61) + (hi << 3 & MersennePrime61) + (hi >> 58)
	res = (res & MersennePrime61) + (res >> 61)
	if res >= MersennePrime61 {
		res -= MersennePrime61
	}
	return res
}

// addmod61 returns a+b mod 2^61−1 for a,b < 2^61−1, as the canonical
// residue in [0, p). It is branch-free: the unsigned minimum of s = a+b
// and s−p, where s−p wraps past 2^63 exactly when s < p (a compare and a
// conditional move on amd64).
func addmod61(a, b uint64) uint64 {
	s := a + b
	return min(s, s-MersennePrime61)
}

// submod61 returns a−b mod 2^61−1 for a,b < 2^61−1, branch-free in the
// same way: d = a−b wraps past 2^63 exactly when a < b, and then d+p is
// the smaller of the two.
func submod61(a, b uint64) uint64 {
	d := a - b
	return min(d, d+MersennePrime61)
}

// Poly is a k-wise independent hash function h(x) = Σ coef[i]·x^i over
// GF(2^61−1). A uniformly random Poly with k coefficients is k-wise
// independent on inputs < p.
//
// Drawing a Poly also computes the coefficient rows of its forward
// differences Δ^j h, j = 0…k−1 (Δh(x) = h(x+1) − h(x), of one degree
// less), so a PolyStepper is positioned at any point by evaluating the
// rows there: k(k−1)/2 modular multiplications instead of k Horner
// evaluations.
type Poly struct {
	coef []uint64 // coef[i] < p; the first k entries of rows
	// rows holds the rows back to back: row j has k−j coefficients,
	// lowest degree first, and row 0 is coef.
	rows []uint64
}

// NewPoly builds a polynomial hash with k coefficients derived from seed
// words (each reduced mod p). len(seed) determines the independence k.
func NewPoly(seed []uint64) Poly {
	var p Poly
	p.SetCoef(seed)
	return p
}

// SetCoef reinitializes p in place from seed words (each reduced mod p),
// reusing the existing coefficient storage when capacity allows: the
// allocation-free counterpart of NewPoly for hot loops that redraw the
// polynomial once per PRG seed.
func (p *Poly) SetCoef(seed []uint64) {
	k := len(seed)
	size := k * (k + 1) / 2
	if cap(p.rows) < size {
		p.rows = make([]uint64, size)
	}
	p.rows = p.rows[:size]
	p.coef = p.rows[:k]
	for i, s := range seed {
		p.coef[i] = s % MersennePrime61
	}
	// Row j+1 is Δ of row j: the Taylor shift g(x+1) by additions only
	// (Horner's synthetic division at 1, the top coefficient fixed),
	// minus g, whose top coefficient cancels.
	for j, off := 0, 0; j+1 < k; j++ {
		g := p.rows[off : off+k-j]
		d := len(g) - 1
		next := p.rows[off+k-j : off+k-j+d]
		copy(next, g[:d])
		top := g[d]
		for i := 0; i < d; i++ {
			for m := d - 1; m >= i; m-- {
				up := top
				if m+1 < d {
					up = next[m+1]
				}
				next[m] = addmod61(next[m], up)
			}
		}
		for i := range next {
			next[i] = submod61(next[i], g[i])
		}
		off += k - j
	}
}

// Eval evaluates the polynomial at x (reduced mod p) by Horner's rule.
func (p Poly) Eval(x uint64) uint64 {
	x %= MersennePrime61
	var acc uint64
	for i := len(p.coef) - 1; i >= 0; i-- {
		acc = addmod61(mulmod61(acc, x), p.coef[i])
	}
	return acc
}

// Bin maps x to a bin in [0, bins) with bias at most bins/p (negligible).
func (p Poly) Bin(x uint64, bins int) int {
	return int(p.Eval(x) % uint64(bins))
}

// PolyStepper evaluates a Poly at consecutive points x0, x0+1, … by
// finite differences: a degree-(k−1) polynomial's k-th forward difference
// vanishes, so once the difference table holds Δ^j f(x0), every further
// point costs k−1 modular additions instead of k−1 modular
// multiplications. All arithmetic stays on canonical residues in [0, p),
// so the stepped residue is bit-identical to Eval at every point — the
// property the PRG's lazy chunk views rely on (an output bit is the
// residue's LSB).
//
// This is the consecutive-point engine under the k-wise PRG: chunk c's
// bits are the polynomial at c·bitsPer+1, …, (c+1)·bitsPer, a contiguous
// run per chunk.
type PolyStepper struct {
	diffs []uint64
}

// Stepper starts consecutive evaluation at x0, (re)using buf for the
// difference table (length k, the number of coefficients, or it is
// reallocated). The returned stepper is positioned at x0: its residue is
// Eval(x0). Seeding evaluates each difference row at x0 by Horner's rule,
// k(k−1)/2 multiplications in all.
func (p Poly) Stepper(x0 uint64, buf []uint64) PolyStepper {
	k := len(p.coef)
	if cap(buf) < k {
		buf = make([]uint64, k)
	}
	buf = buf[:k]
	x := x0 % MersennePrime61
	row := p.rows
	for j := range buf {
		r := row[:k-j]
		row = row[k-j:]
		acc := r[len(r)-1]
		for i := len(r) - 2; i >= 0; i-- {
			acc = addmod61(mulmod61(acc, x), r[i])
		}
		buf[j] = acc
	}
	return PolyStepper{diffs: buf}
}

// Bits returns the least significant bits of the polynomial at the
// stepper's next m points (m ≤ 64), the current point's in bit 0, packed
// into one word with no branch on a bit's value, and leaves the stepper m
// points further on. Per point, each
// difference absorbs the next-higher one (ascending order reads the
// not-yet-updated neighbor, which is exactly Δ^{j+1} at the old point).
func (s PolyStepper) Bits(m int) uint64 {
	a := s.diffs
	var w uint64
	if len(a) == 0 {
		return 0
	}
	for j := 0; j < m; j++ {
		x := a[0]
		w |= (x & 1) << uint(j)
		for i := 1; i < len(a); i++ {
			xn := a[i]
			a[i-1] = addmod61(x, xn)
			x = xn
		}
	}
	return w
}

// Diffs returns the stepper's difference-table storage so callers can
// hand it back to Stepper and keep the evaluation loop allocation-free.
func (s PolyStepper) Diffs() []uint64 { return s.diffs }

// GF2Linear is the hash h(x) = parity(a AND x) XOR c over 64-bit keys:
// one output bit, pairwise independent for distinct keys. The seed is the
// 64 bits of a plus the bit c, consumed LSB-first as "seed bits" by the
// conditional-expectation machinery.
type GF2Linear struct {
	A uint64
	C uint64 // 0 or 1
}

// Bit returns h(x) ∈ {0,1}.
func (h GF2Linear) Bit(x uint64) uint64 {
	return uint64(bits.OnesCount64(h.A&x)&1) ^ (h.C & 1)
}

// CollisionProb returns the probability, over the unfixed suffix of the
// seed a (bits [fixedBits, 64) uniform, bits [0, fixedBits) taken from
// aPrefix), that h(x) == h(y). The c bit cancels in collisions, so it never
// matters. The result is exact: 0, 1, or 1/2 encoded as (num, den) with
// den ∈ {1, 2}.
//
// This exactness is what makes the bit-by-bit method of conditional
// expectations over GF2Linear splits computable (Section 6 / Lemma 23
// derandomization): the expected number of monochromatic edges conditioned
// on any seed prefix is a sum of these terms.
func CollisionProb(x, y uint64, aPrefix uint64, fixedBits uint) (num, den int) {
	d := x ^ y
	if d == 0 {
		return 1, 1
	}
	mask := ^uint64(0)
	if fixedBits < 64 {
		mask = (uint64(1) << fixedBits) - 1
	}
	if d&^mask != 0 {
		// Some differing key bit is still governed by an unfixed seed bit:
		// the parity of a&d is uniform.
		return 1, 2
	}
	// Fully determined by the prefix.
	if bits.OnesCount64(aPrefix&d)&1 == 0 {
		return 1, 1
	}
	return 0, 1
}
