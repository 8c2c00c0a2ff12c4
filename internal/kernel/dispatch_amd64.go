//go:build amd64 && !noasm

package kernel

// Runtime dispatch for the hand-vectorized amd64 bodies. AVX2 use
// requires all of: the CPU advertising AVX2 (CPUID leaf 7 EBX bit 5),
// the AVX+OSXSAVE feature bits (leaf 1 ECX bits 28/27), and the OS
// having enabled XMM+YMM state saving (XGETBV XCR0 bits 1–2) — the full
// check, not just the AVX2 bit, because a hypervisor or OS that does not
// context-switch ymm state would corrupt registers across preemption.

// avx2Supported is the immutable hardware capability; useAVX2 is the
// dispatch decision the front doors consult, mutable only through
// SetAVX2ForTest.
var (
	avx2Supported = detectAVX2()
	useAVX2       = avx2Supported
)

// detectAVX2 performs the CPUID/XGETBV dance described above.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM) must both be OS-enabled.
	xcr0lo, _ := xgetbv0()
	if xcr0lo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// SetAVX2ForTest forces the dispatch path for the current process and
// returns the previous setting: the hook the differential suites use to
// pin the AVX2 and pure-Go bodies bit-identical inside one test binary.
// Enabling on hardware without AVX2 support is a no-op (the pure-Go path
// stays selected). Not safe to flip concurrently with running kernels —
// callers flip it between runs, not during one.
func SetAVX2ForTest(on bool) (prev bool) {
	prev = useAVX2
	useAVX2 = on && avx2Supported
	return prev
}

// UsingAVX2 reports whether the front doors currently dispatch to the
// AVX2 bodies (above the per-kernel size thresholds).
func UsingAVX2() bool { return useAVX2 }

// cpuid executes CPUID for (leaf, sub); implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0; callers must have verified OSXSAVE first.
func xgetbv0() (eax, edx uint32)

// The AVX2 kernel bodies (kernel_amd64.s). Each handles every length
// ≥ 0 — vector main loops with scalar tails — so the front doors' size
// thresholds are pure performance policy, not correctness requirements.

//go:noescape
func addAVX2(dst, src []int64)

//go:noescape
func maskNeq32AVX2(dst []uint64, xs []int32, sentinel int32)

//go:noescape
func popcountWordsAVX2(ws []uint64) int

//go:noescape
func andNotWordsAVX2(dst, src []uint64)

//go:noescape
func fillWordsAVX2(dst []uint64, val uint64)
