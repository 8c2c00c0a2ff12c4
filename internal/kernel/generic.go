package kernel

import "math/bits"

// The pure-Go kernel bodies: the universal fallback behind the dispatch
// front doors in kernel.go, and the reference the AVX2 bodies are pinned
// against. They compile on every target (they are the only bodies under
// `-tags noasm` or off amd64) and are written so the loops are
// unit-stride with all bounds checks hoisted — the form the compiler's
// scalar scheduler does best on.

// addGeneric is Add's fallback: a four-way unroll keeping four
// independent add chains in flight.
func addGeneric(dst, src []int64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// neq32 reports x != s branchlessly as 0 or 1: the lane compare under the
// movemask accumulation (x^s is nonzero exactly when they differ, and
// d|-d smears any nonzero into the sign bit).
func neq32(x, s int32) uint64 {
	d := uint32(x ^ s)
	return uint64((d | -d) >> 31)
}

// maskNeq32Generic is MaskNeq32's fallback: full words accumulate eight
// 8-lane compare blocks — the hand-rolled compare-and-movemask shape —
// instead of a branch per element.
func maskNeq32Generic(dst []uint64, xs []int32, sentinel int32) {
	n := len(xs)
	wi := 0
	for ; (wi+1)<<6 <= n; wi++ {
		var w uint64
		for o := 0; o < 64; o += 8 {
			x := xs[wi<<6+o : wi<<6+o+8 : wi<<6+o+8]
			b := neq32(x[0], sentinel) |
				neq32(x[1], sentinel)<<1 |
				neq32(x[2], sentinel)<<2 |
				neq32(x[3], sentinel)<<3 |
				neq32(x[4], sentinel)<<4 |
				neq32(x[5], sentinel)<<5 |
				neq32(x[6], sentinel)<<6 |
				neq32(x[7], sentinel)<<7
			w |= b << uint(o)
		}
		dst[wi] = w
	}
	if base := wi << 6; base < n {
		var w uint64
		for i := base; i < n; i++ {
			w |= neq32(xs[i], sentinel) << uint(i-base)
		}
		dst[wi] = w
	}
}

// popcountWordsGeneric is PopcountWords' fallback: a four-way unroll of
// the per-word popcount (OnesCount64 compiles to one POPCNT on amd64), so
// four counts are in flight per iteration.
func popcountWordsGeneric(ws []uint64) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(ws); i += 4 {
		w := ws[i : i+4 : i+4]
		c0 += bits.OnesCount64(w[0])
		c1 += bits.OnesCount64(w[1])
		c2 += bits.OnesCount64(w[2])
		c3 += bits.OnesCount64(w[3])
	}
	for ; i < len(ws); i++ {
		c0 += bits.OnesCount64(ws[i])
	}
	return c0 + c1 + c2 + c3
}

// fillWordsGeneric is FillWords' fallback: a four-way unrolled broadcast
// store.
func fillWordsGeneric(dst []uint64, val uint64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4]
		d[0] = val
		d[1] = val
		d[2] = val
		d[3] = val
	}
	for ; i < len(dst); i++ {
		dst[i] = val
	}
}

// andNotWordsGeneric is AndNotWords' fallback: a four-way unrolled
// word-wise and-not.
func andNotWordsGeneric(dst, src []uint64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] &^= s[0]
		d[1] &^= s[1]
		d[2] &^= s[2]
		d[3] &^= s[3]
	}
	for ; i < len(dst); i++ {
		dst[i] &^= src[i]
	}
}
