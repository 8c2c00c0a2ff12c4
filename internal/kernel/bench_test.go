package kernel

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel microbenchmarks stream into BENCH_kernel.json via
// `make bench-kernel` and gate via `make bench-kernel-diff`, so kernel
// regressions fail a PR the way table-path regressions do. Every kernel
// runs once per dispatch path — dispatch=generic (the pure-Go bodies)
// and dispatch=avx2 (the hand-vectorized bodies, absent off amd64 or
// under -tags noasm) — so the stream always carries scalar-vs-AVX2 rows
// for the same shapes and a vectorization regression is visible as a
// shrinking gap, not just a slower absolute number.
//
// Sizes bracket the call sites at both ends: n=64/256 are short segments
// and masks (latency-bound: call overhead and tail handling dominate),
// 1024 is a mid-sized converge-cast segment, 65536 is the
// FromNeq32/whole-mask regime (bandwidth-bound: the vector win is in
// bytes per cycle).

func benchSizes() []int { return []int{64, 256, 1024, 65536} }

// benchPaths returns the dispatch paths available in this binary.
func benchPaths() []struct {
	name string
	on   bool
} {
	paths := []struct {
		name string
		on   bool
	}{{"dispatch=generic", false}}
	if prev := SetAVX2ForTest(true); UsingAVX2() {
		paths = append(paths, struct {
			name string
			on   bool
		}{"dispatch=avx2", true})
		SetAVX2ForTest(prev)
	}
	return paths
}

// runPaths runs body once per dispatch path as a sub-benchmark.
func runPaths(b *testing.B, name string, body func(b *testing.B)) {
	for _, p := range benchPaths() {
		b.Run(p.name+"/"+name, func(b *testing.B) {
			prev := SetAVX2ForTest(p.on)
			defer SetAVX2ForTest(prev)
			body(b)
		})
	}
}

func BenchmarkKernelAdd(b *testing.B) {
	for _, n := range benchSizes() {
		rng := rand.New(rand.NewSource(int64(n)))
		dst := randInt64s(n, rng)
		src := randInt64s(n, rng)
		runPaths(b, sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				Add(dst, src)
			}
		})
	}
}

func BenchmarkKernelMaskNeq32(b *testing.B) {
	for _, n := range benchSizes() {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]int32, n)
		for i := range xs {
			if rng.Intn(2) == 0 {
				xs[i] = -1
			} else {
				xs[i] = rng.Int31()
			}
		}
		dst := make([]uint64, (n+63)>>6)
		runPaths(b, sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 4))
			for i := 0; i < b.N; i++ {
				MaskNeq32(dst, xs, -1)
			}
		})
	}
	// The per-bit branchy loop MaskNeq32 replaced, kept as the ablation
	// baseline row.
	n := 65536
	xs := make([]int32, n)
	rng := rand.New(rand.NewSource(9))
	for i := range xs {
		if rng.Intn(2) == 0 {
			xs[i] = -1
		} else {
			xs[i] = rng.Int31()
		}
	}
	dst := make([]uint64, (n+63)>>6)
	b.Run("branchy-ref/n=65536", func(b *testing.B) {
		b.SetBytes(int64(n * 4))
		for i := 0; i < b.N; i++ {
			for wi := range dst {
				base := wi << 6
				end := base + 64
				if end > n {
					end = n
				}
				var w uint64
				for j := base; j < end; j++ {
					if xs[j] != -1 {
						w |= 1 << uint(j-base)
					}
				}
				dst[wi] = w
			}
		}
	})
}

func BenchmarkKernelPopcountWords(b *testing.B) {
	// Word counts from a few-word mask up to a whole 64Ki-bit mask.
	for _, n := range []int{4, 16, 1024} {
		ws := randUint64s(n, rand.New(rand.NewSource(int64(n))))
		runPaths(b, sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += int64(PopcountWords(ws))
			}
			benchSink = sink
		})
	}
}

func BenchmarkKernelAndNotWords(b *testing.B) {
	for _, n := range []int{4, 16, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		dst := randUint64s(n, rng)
		src := randUint64s(n, rng)
		runPaths(b, sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				AndNotWords(dst, src)
			}
		})
	}
}

var benchSink int64

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }

func BenchmarkKernelFillWords(b *testing.B) {
	for _, n := range benchSizes() {
		dst := make([]uint64, n)
		runPaths(b, sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				FillWords(dst, ^uint64(0))
			}
		})
	}
}
