package kernel

import (
	"math/bits"
	"math/rand"
	"testing"
)

// Differential references: the naive loops each kernel must match
// bit-for-bit on every input, on every dispatch path.

func addRef(dst, src []int64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func maskNeq32Ref(xs []int32, sentinel int32) []uint64 {
	out := make([]uint64, (len(xs)+63)>>6)
	for i, x := range xs {
		if x != sentinel {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
	return out
}

func popcountWordsRef(ws []uint64) int {
	c := 0
	for _, w := range ws {
		c += bits.OnesCount64(w)
	}
	return c
}

func andNotWordsRef(dst, src []uint64) {
	for i := range dst {
		dst[i] &^= src[i]
	}
}

// forEachPath runs fn once per dispatch path available in this binary:
// always the pure-Go bodies, and additionally the AVX2 bodies when the
// host supports them and they were compiled in (amd64, no noasm tag).
// Every kernel property in this file holds per path, which is what makes
// the dispatch invisible to callers.
func forEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Run("generic", func(t *testing.T) {
		prev := SetAVX2ForTest(false)
		defer SetAVX2ForTest(prev)
		fn(t)
	})
	t.Run("avx2", func(t *testing.T) {
		prev := SetAVX2ForTest(true)
		defer SetAVX2ForTest(prev)
		if !UsingAVX2() {
			t.Skip("AVX2 bodies unavailable (non-amd64, noasm tag, or unsupported host)")
		}
		fn(t)
	})
}

// raggedLens exercises every unroll boundary: empty, below one block,
// below and above the dispatch thresholds, exact multiples of the 4-wide
// unroll, the 16-lane vector step and the 64-lane word, and stragglers
// on either side.
var raggedLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 63, 64, 65, 127, 128, 130, 1000}

func randInt64s(n int, rng *rand.Rand) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63() - rng.Int63() // signed, full range
	}
	return xs
}

func randUint64s(n int, rng *rand.Rand) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

func TestAddMatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, n := range raggedLens {
			dst := randInt64s(n, rng)
			src := randInt64s(n, rng)
			want := append([]int64(nil), dst...)
			addRef(want, src)
			Add(dst, src)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d: Add[%d] = %d, want %d", n, i, dst[i], want[i])
				}
			}
		}
	})
}

func TestMaskNeq32MatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, n := range raggedLens {
			for _, sentinel := range []int32{-1, 0, 7} {
				xs := make([]int32, n)
				for i := range xs {
					switch rng.Intn(3) {
					case 0:
						xs[i] = sentinel
					case 1:
						xs[i] = sentinel + 1 // adjacent value: one-bit difference
					default:
						xs[i] = rng.Int31() - rng.Int31()
					}
				}
				want := maskNeq32Ref(xs, sentinel)
				got := make([]uint64, len(want))
				// Poison: full words and the tail must be fully rewritten.
				for i := range got {
					got[i] = ^uint64(0)
				}
				MaskNeq32(got, xs, sentinel)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d sentinel=%d: word %d = %x, want %x", n, sentinel, i, got[i], want[i])
					}
				}
			}
		}
	})
}

func TestMaskNeq32SignBoundaryLanes(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		// The branchless compare folds through the sign bit; pin the extreme
		// lanes explicitly, repeated past the vector threshold so the AVX2
		// body sees them in full blocks too.
		pat := []int32{-1 << 31, 1<<31 - 1, 0, -1, 1, -1 << 31, 1<<31 - 1}
		var xs []int32
		for len(xs) < 71 {
			xs = append(xs, pat...)
		}
		for _, sentinel := range pat {
			want := maskNeq32Ref(xs, sentinel)
			got := make([]uint64, len(want))
			MaskNeq32(got, xs, sentinel)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sentinel=%d: word %d = %x want %x", sentinel, i, got[i], want[i])
				}
			}
		}
	})
}

func TestPopcountWordsMatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range raggedLens {
			ws := randUint64s(n, rng)
			if got, want := PopcountWords(ws), popcountWordsRef(ws); got != want {
				t.Fatalf("n=%d: PopcountWords = %d, want %d", n, got, want)
			}
		}
		// Saturated extremes: all-ones and all-zeros words, past the vector
		// threshold (the nibble-LUT path's per-byte counts peak at 8 here).
		ones := make([]uint64, 33)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		if got := PopcountWords(ones); got != 33*64 {
			t.Fatalf("all-ones: %d, want %d", got, 33*64)
		}
		if got := PopcountWords(make([]uint64, 33)); got != 0 {
			t.Fatalf("all-zeros: %d, want 0", got)
		}
	})
}

func TestAndNotWordsMatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		for _, n := range raggedLens {
			dst := randUint64s(n, rng)
			src := randUint64s(n, rng)
			want := append([]uint64(nil), dst...)
			andNotWordsRef(want, src)
			AndNotWords(dst, src)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d: AndNotWords[%d] = %x, want %x", n, i, dst[i], want[i])
				}
			}
		}
	})
}

// wantPanic asserts fn panics with exactly the given message: the
// kernels' preconditions must report the offending lengths, not a bare
// string, so a violating call site can be found from the crash alone.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

func TestKernelPanicsReportLengths(t *testing.T) {
	wantPanic(t, "kernel: Add: length mismatch: len(dst)=3 len(src)=4", func() {
		Add(make([]int64, 3), make([]int64, 4))
	})
	wantPanic(t, "kernel: MaskNeq32: dst too short: len(dst)=1, need 2 words for len(xs)=65", func() {
		MaskNeq32(make([]uint64, 1), make([]int32, 65), -1)
	})
	wantPanic(t, "kernel: AndNotWords: length mismatch: len(dst)=3 len(src)=4", func() {
		AndNotWords(make([]uint64, 3), make([]uint64, 4))
	})
}

func TestKernelsAllocationFree(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		dst := make([]int64, 513)
		src := make([]int64, 513)
		mask := make([]uint64, 9)
		xs := make([]int32, 513)
		ws := make([]uint64, 513)
		wd := make([]uint64, 513)
		if a := testing.AllocsPerRun(10, func() {
			Add(dst, src)
			MaskNeq32(mask, xs, -1)
			_ = PopcountWords(ws)
			AndNotWords(wd, ws)
		}); a != 0 {
			t.Fatalf("kernels allocate: %.1f allocs/run", a)
		}
	})
}

// TestDispatchPathsAgree pins the two dispatch paths against each other
// through the public API (not just against the naive references): one
// input, both paths, identical output words — the in-binary counterpart
// of the noasm CI leg.
func TestDispatchPathsAgree(t *testing.T) {
	prev := SetAVX2ForTest(true)
	defer SetAVX2ForTest(prev)
	if !UsingAVX2() {
		t.Skip("only one dispatch path in this binary")
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{64, 65, 257, 4096} {
		xs := randInt64s(n, rng)
		SetAVX2ForTest(true)
		addA := append([]int64(nil), xs...)
		Add(addA, xs)
		SetAVX2ForTest(false)
		addG := append([]int64(nil), xs...)
		Add(addG, xs)
		for i := range addA {
			if addA[i] != addG[i] {
				t.Fatalf("n=%d: Add diverges at %d", n, i)
			}
		}
	}
}

func fillWordsRef(dst []uint64, val uint64) {
	for i := range dst {
		dst[i] = val
	}
}

func TestFillWordsMatchesReference(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, n := range raggedLens {
			for _, val := range []uint64{0, ^uint64(0), 0xdeadbeefcafef00d, rng.Uint64()} {
				dst := randUint64s(n, rng)
				want := make([]uint64, n)
				fillWordsRef(want, val)
				FillWords(dst, val)
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("n=%d val=%x: FillWords[%d] = %x, want %x", n, val, i, dst[i], want[i])
					}
				}
			}
		}
	})
}
