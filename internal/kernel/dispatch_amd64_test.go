//go:build amd64 && !noasm

package kernel

import (
	"math/rand"
	"testing"
)

// Direct differentials for the assembly bodies, bypassing the front
// doors' size thresholds: every length — including the sub-threshold
// ones the dispatched API would route to the pure-Go bodies — must be
// bit-identical to the naive reference, at every slice alignment. The
// Go allocator aligns []int64 to 8 bytes, not the 32 a ymm lane spans,
// so offsetting into one backing array exercises genuinely unaligned
// loads and stores plus the mid-vector tail crossings.

// offsetViews returns n-element views of a shared backing array starting
// at the given element offset — adjacent, aliasing-adjacent slices of
// one allocation, never 32-byte aligned for off % 4 != 0.
func offsetInt64s(t *testing.T, back []int64, off, n int) []int64 {
	t.Helper()
	if off+n > len(back) {
		t.Fatalf("backing too short: %d+%d > %d", off, n, len(back))
	}
	return back[off : off+n : off+n]
}

// TestAsmSumAddRaggedUnaligned covers the add body; the name is kept
// from when it also covered a sum body.
func TestAsmSumAddRaggedUnaligned(t *testing.T) {
	if !avx2Supported {
		t.Skip("host lacks AVX2")
	}
	rng := rand.New(rand.NewSource(11))
	const maxN = 300
	back := randInt64s(4+maxN*2, rng)
	for _, off := range []int{0, 1, 2, 3} {
		for n := 0; n <= maxN; n++ {
			// Aliasing-adjacent: dst and src are back-to-back views of the
			// same backing array — the layout mpc's converge-cast folds use
			// when child segments land next to the accumulator row.
			dst := offsetInt64s(t, back, off, n)
			src := offsetInt64s(t, back, off+n, n)
			want := append([]int64(nil), dst...)
			addRef(want, src)
			saved := append([]int64(nil), dst...)
			addAVX2(dst, src)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("off=%d n=%d: addAVX2[%d] = %d, want %d", off, n, i, dst[i], want[i])
				}
			}
			copy(dst, saved) // restore the shared backing for the next shape
		}
	}
}

func TestAsmMaskNeq32RaggedUnaligned(t *testing.T) {
	if !avx2Supported {
		t.Skip("host lacks AVX2")
	}
	rng := rand.New(rand.NewSource(12))
	const maxN = 300
	back := make([]int32, 8+maxN)
	for i := range back {
		switch rng.Intn(3) {
		case 0:
			back[i] = -1
		case 1:
			back[i] = 0
		default:
			back[i] = rng.Int31() - rng.Int31()
		}
	}
	for _, off := range []int{0, 1, 3, 5, 7} {
		for n := 0; n <= maxN; n += 7 {
			xs := back[off : off+n : off+n]
			for _, sentinel := range []int32{-1, 0} {
				want := maskNeq32Ref(xs, sentinel)
				got := make([]uint64, len(want))
				for i := range got {
					got[i] = ^uint64(0)
				}
				maskNeq32AVX2(got, xs, sentinel)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("off=%d n=%d sentinel=%d: word %d = %x, want %x",
							off, n, sentinel, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAsmPopcountAndNotRaggedUnaligned(t *testing.T) {
	if !avx2Supported {
		t.Skip("host lacks AVX2")
	}
	rng := rand.New(rand.NewSource(13))
	const maxN = 300
	back := randUint64s(4+maxN*2, rng)
	for _, off := range []int{0, 1, 2, 3} {
		for n := 0; n <= maxN; n++ {
			ws := back[off : off+n : off+n]
			if got, want := popcountWordsAVX2(ws), popcountWordsRef(ws); got != want {
				t.Fatalf("off=%d n=%d: popcountWordsAVX2 = %d, want %d", off, n, got, want)
			}
			// Aliasing-adjacent and-not over the shared backing.
			dst := back[off : off+n : off+n]
			src := back[off+n : off+2*n : off+2*n]
			want := append([]uint64(nil), dst...)
			andNotWordsRef(want, src)
			saved := append([]uint64(nil), dst...)
			andNotWordsAVX2(dst, src)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("off=%d n=%d: andNotWordsAVX2[%d] = %x, want %x", off, n, i, dst[i], want[i])
				}
			}
			copy(dst, saved)
		}
	}
}

// TestSetAVX2ForTestRespectsSupport pins the test hook's contract: the
// dispatch can always be forced off, can be forced on only when the
// hardware supports it, and restores cleanly.
func TestSetAVX2ForTestRespectsSupport(t *testing.T) {
	orig := UsingAVX2()
	defer SetAVX2ForTest(orig)
	SetAVX2ForTest(false)
	if UsingAVX2() {
		t.Fatal("UsingAVX2 true after forcing off")
	}
	SetAVX2ForTest(true)
	if got, want := UsingAVX2(), avx2Supported; got != want {
		t.Fatalf("UsingAVX2 after forcing on = %v, want hardware support %v", got, want)
	}
}

func TestAsmFillWordsRaggedUnaligned(t *testing.T) {
	if !avx2Supported {
		t.Skip("host lacks AVX2")
	}
	rng := rand.New(rand.NewSource(15))
	const maxN = 300
	back := randUint64s(4+maxN, rng)
	for _, off := range []int{0, 1, 2, 3} {
		for n := 0; n <= maxN; n++ {
			dst := back[off : off+n : off+n]
			val := rng.Uint64()
			fillWordsAVX2(dst, val)
			for i := range dst {
				if dst[i] != val {
					t.Fatalf("off=%d n=%d: fillWordsAVX2[%d] = %x, want %x", off, n, i, dst[i], val)
				}
			}
			// The word after the slice must be untouched.
			if off+n < len(back) {
				back[off+n] = 0x5a5a5a5a5a5a5a5a
				fillWordsAVX2(dst, ^val)
				if back[off+n] != 0x5a5a5a5a5a5a5a5a {
					t.Fatalf("off=%d n=%d: fillWordsAVX2 wrote past the slice", off, n)
				}
			}
		}
	}
}
