//go:build !amd64 || noasm

package kernel

// Non-amd64 targets and `-tags noasm` builds have no assembly bodies:
// useAVX2 is a constant false, so the front doors' AVX2 branches are
// dead-code-eliminated and every kernel runs its pure-Go body. The stubs
// below exist only to satisfy the references in kernel.go; they are
// provably unreachable.

const (
	avx2Supported = false
	useAVX2       = false
)

// SetAVX2ForTest is a no-op on builds without assembly bodies: the
// pure-Go path is the only path. It returns false so differential suites
// can detect that only one dispatch path exists.
func SetAVX2ForTest(on bool) (prev bool) { return false }

// UsingAVX2 reports whether the front doors currently dispatch to the
// AVX2 bodies — never, on this build.
func UsingAVX2() bool { return false }

func addAVX2(dst, src []int64) { panic("kernel: addAVX2: unreachable without asm") }
func maskNeq32AVX2(dst []uint64, xs []int32, s int32) {
	panic("kernel: maskNeq32AVX2: unreachable without asm")
}
func popcountWordsAVX2(ws []uint64) int { panic("kernel: popcountWordsAVX2: unreachable without asm") }
func andNotWordsAVX2(dst, src []uint64) { panic("kernel: andNotWordsAVX2: unreachable without asm") }
func fillWordsAVX2(dst []uint64, val uint64) {
	panic("kernel: fillWordsAVX2: unreachable without asm")
}
