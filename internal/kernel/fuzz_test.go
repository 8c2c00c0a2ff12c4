package kernel

import "testing"

// The kernel fuzz suite is differential per dispatch path, not just vs
// naive: every target runs its property under each available body
// (pure-Go always; AVX2 when compiled in and supported), so a lane-order
// or tail-handling bug in either body fails against the reference even
// if the other body is correct. Seeds cover the degenerate shapes and
// the dispatch thresholds; go test -fuzz=… explores beyond them.

// forEachPathF is forEachPath for fuzz targets: no subtests inside a
// fuzz function, so the paths run inline with a label for failures.
func forEachPathF(t *testing.T, fn func(t *testing.T, path string)) {
	prev := SetAVX2ForTest(false)
	fn(t, "generic")
	if SetAVX2ForTest(true); UsingAVX2() {
		fn(t, "avx2")
	}
	SetAVX2ForTest(prev)
}

// FuzzMaskNeq32 pins the compare-and-movemask kernel to the per-bit
// reference across arbitrary lane values, sentinels and source offsets
// (unaligned vector loads plus ragged tails).
func FuzzMaskNeq32(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, int32(-1), uint8(0))
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}, int32(0), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, sentinel int32, off8 uint8) {
		off := int(off8) % 8
		back := make([]int32, off+len(raw))
		xs := back[off : off+len(raw) : off+len(raw)]
		for i, b := range raw {
			xs[i] = int32(b) - 128
			if b%5 == 0 {
				xs[i] = sentinel
			}
		}
		want := maskNeq32Ref(xs, sentinel)
		forEachPathF(t, func(t *testing.T, path string) {
			got := make([]uint64, len(want))
			for i := range got {
				got[i] = ^uint64(0) // poison: every word must be rewritten
			}
			MaskNeq32(got, xs, sentinel)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: n=%d off=%d: word %d = %x, want %x",
						path, len(xs), off, i, got[i], want[i])
				}
			}
		})
	})
}

// FuzzSumAddAliasing pins Add on aliasing-adjacent views of one backing
// array — dst and src back-to-back, at fuzzed offsets, so the vector
// body's loads and stores run against live neighboring memory —
// including the exact-overflow lanes int64 wrap-around must preserve.
// The name is kept from when the target also covered a Sum kernel.
func FuzzSumAddAliasing(f *testing.F) {
	f.Add(uint16(0), uint8(0), int64(1))
	f.Add(uint16(15), uint8(1), int64(-1))
	f.Add(uint16(16), uint8(3), int64(1<<62))
	f.Add(uint16(129), uint8(2), int64(-1<<62))
	f.Fuzz(func(t *testing.T, n16 uint16, off8 uint8, salt int64) {
		n := int(n16) % 600
		off := int(off8) % 4
		back := make([]int64, off+2*n)
		for i := range back {
			back[i] = salt + int64(i)*(salt|1) + int64(i)<<40
		}
		src := back[off+n : off+2*n : off+2*n]
		wantDst := make([]int64, n)
		copy(wantDst, back[off:off+n])
		addRef(wantDst, src)
		forEachPathF(t, func(t *testing.T, path string) {
			dst := back[off : off+n : off+n]
			saved := append([]int64(nil), dst...)
			Add(dst, src)
			for i := range wantDst {
				if dst[i] != wantDst[i] {
					t.Fatalf("%s: n=%d off=%d: Add[%d] = %d, want %d",
						path, n, off, i, dst[i], wantDst[i])
				}
			}
			copy(dst, saved) // restore shared backing for the other path
		})
	})
}

// FuzzPopcountAndNot pins the word-stream kernels under bitset.Count and
// bitset.AndNot: arbitrary word contents at fuzzed offsets, popcount
// checked before and after an aliasing-adjacent and-not.
func FuzzPopcountAndNot(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0x01}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, off8 uint8) {
		n := len(raw)
		off := int(off8) % 4
		back := make([]uint64, off+2*n)
		for i := range back {
			if n == 0 {
				break
			}
			b := raw[i%n]
			back[i] = uint64(b) * 0x0101010101010101 >> uint(i%7)
		}
		dstRef := append([]uint64(nil), back[off:off+n]...)
		src := back[off+n : off+2*n : off+2*n]
		wantBefore := popcountWordsRef(dstRef)
		andNotWordsRef(dstRef, src)
		wantAfter := popcountWordsRef(dstRef)
		forEachPathF(t, func(t *testing.T, path string) {
			dst := back[off : off+n : off+n]
			saved := append([]uint64(nil), dst...)
			if got := PopcountWords(dst); got != wantBefore {
				t.Fatalf("%s: n=%d off=%d: PopcountWords = %d, want %d", path, n, off, got, wantBefore)
			}
			AndNotWords(dst, src)
			for i := range dstRef {
				if dst[i] != dstRef[i] {
					t.Fatalf("%s: n=%d off=%d: AndNotWords[%d] = %x, want %x",
						path, n, off, i, dst[i], dstRef[i])
				}
			}
			if got := PopcountWords(dst); got != wantAfter {
				t.Fatalf("%s: n=%d off=%d: popcount after and-not = %d, want %d", path, n, off, got, wantAfter)
			}
			copy(dst, saved)
		})
	})
}
