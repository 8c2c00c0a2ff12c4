package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestAtIsPureFunction(t *testing.T) {
	x := At2(7, 3, 9).Uint64()
	y := At2(7, 3, 9).Uint64()
	if x != y {
		t.Fatal("At2 not pure")
	}
	if At2(7, 3, 9).Uint64() == At2(7, 3, 10).Uint64() {
		t.Fatal("At2 collision on adjacent rounds (vanishingly unlikely)")
	}
}

func TestHash2Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Hash2(1, i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	s := New(1)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %f", v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%64) + 1
		p := make([]int32, n)
		New(seed).Perm(p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	xs := []int32{5, 5, 1, 9, 2, 2, 2}
	cp := append([]int32(nil), xs...)
	New(3).Shuffle(cp)
	count := map[int32]int{}
	for _, v := range xs {
		count[v]++
	}
	for _, v := range cp {
		count[v]--
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("value %d count off by %d", k, c)
		}
	}
}

func TestBitsTakeRoundTrip(t *testing.T) {
	// 0b1011 packed LSB-first in word 0: bits consumed in order 1,1,0,1.
	b := NewBits([]uint64{0b1011}, 4)
	if got := b.Take(1); got != 1 {
		t.Fatalf("bit0=%d", got)
	}
	if got := b.Take(2); got != 0b10 { // bits 1,2 = 1,0 MSB-first => 10
		t.Fatalf("bits1-2=%b", got)
	}
	if got := b.Take(1); got != 1 {
		t.Fatalf("bit3=%d", got)
	}
	if b.Remaining() != 0 {
		t.Fatal("remaining != 0")
	}
}

func TestBitsOverdrawPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overdraw")
		}
	}()
	NewBits([]uint64{0}, 3).Take(4)
}

func TestTakeIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		s := New(seed)
		b := FreshBits(s, 4096)
		for i := 0; i < 50; i++ {
			v := b.TakeIntn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTakeIntnUniformEnough(t *testing.T) {
	s := New(11)
	const n, draws = 7, 60000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		b := FreshBits(s, IntnBits(n))
		counts[b.TakeIntn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %f", v, c, want)
		}
	}
}

func TestFreshBitsLength(t *testing.T) {
	b := FreshBits(New(5), 129)
	if b.Remaining() != 129 {
		t.Fatalf("remaining=%d", b.Remaining())
	}
	b.Take(64)
	b.Take(64)
	b.Take(1)
	if b.Remaining() != 0 {
		t.Fatal("not exhausted")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkTakeIntn(b *testing.B) {
	s := New(1)
	bits := FreshBits(s, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bits.Remaining() < 64 {
			bits = FreshBits(s, 1<<20)
		}
		_ = bits.TakeIntn(100)
	}
}

func TestAtStream(t *testing.T) {
	if At(5, 3).Uint64() != At(5, 3).Uint64() {
		t.Fatal("At not pure")
	}
	if At(5, 3).Uint64() == At(5, 4).Uint64() {
		t.Fatal("At collision on adjacent indices (vanishingly unlikely)")
	}
}

func TestTakeBool(t *testing.T) {
	s := New(13)
	trues := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		b := FreshBits(s, IntnBits(4))
		if b.TakeBool(1, 4) {
			trues++
		}
	}
	frac := float64(trues) / trials
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("TakeBool(1,4) rate %f", frac)
	}
}

func TestTakeIntnExhaustionFallback(t *testing.T) {
	// All-ones bits force rejection every draw for n=3 (draw=0b11=3);
	// exhaustion must return last%n, never panic.
	b := NewBits([]uint64{^uint64(0)}, 8)
	v := b.TakeIntn(3)
	if v < 0 || v >= 3 {
		t.Fatalf("fallback out of range: %d", v)
	}
	// Zero remaining bits and no draws: returns 0.
	b2 := NewBits([]uint64{0}, 0)
	if got := b2.TakeIntn(3); got != 0 {
		t.Fatalf("empty-budget TakeIntn = %d", got)
	}
	// n=1 consumes nothing.
	b3 := NewBits([]uint64{0}, 1)
	if b3.TakeIntn(1) != 0 || b3.Remaining() != 1 {
		t.Fatal("TakeIntn(1) should consume nothing")
	}
}

func TestNewBitsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversize length")
		}
	}()
	NewBits([]uint64{0}, 65)
}

func TestNewBitsViewMatchesRepackedBits(t *testing.T) {
	s := New(77)
	words := make([]uint64, 8)
	for i := range words {
		words[i] = s.Uint64()
	}
	for _, tc := range []struct{ off, n int }{
		{0, 64}, {3, 61}, {64, 64}, {70, 100}, {511, 1}, {0, 512}, {100, 0},
	} {
		// Reference: repack bits [off, off+n) into fresh storage, as the old
		// ChunkedSource.BitsFor did.
		ref := make([]uint64, (tc.n+63)/64)
		for i := 0; i < tc.n; i++ {
			bit := words[(tc.off+i)>>6] >> uint((tc.off+i)&63) & 1
			ref[i>>6] |= bit << uint(i&63)
		}
		a := NewBits(ref, tc.n)
		b := NewBitsView(words, tc.off, tc.n)
		if a.Remaining() != b.Remaining() {
			t.Fatalf("off=%d n=%d: remaining %d vs %d", tc.off, tc.n, a.Remaining(), b.Remaining())
		}
		for a.Remaining() > 0 {
			if x, y := a.Take(1), b.Take(1); x != y {
				t.Fatalf("off=%d n=%d: bit mismatch %d vs %d", tc.off, tc.n, x, y)
			}
		}
	}
}

func TestNewBitsViewConcurrentReaders(t *testing.T) {
	words := []uint64{0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF}
	done := make(chan uint64, 16)
	for k := 0; k < 16; k++ {
		go func() {
			b := NewBitsView(words, 8, 32)
			done <- b.Take(32)
		}()
	}
	want := NewBitsView(words, 8, 32).Take(32)
	for k := 0; k < 16; k++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent view read %x want %x", got, want)
		}
	}
}

func TestNewBitsViewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	NewBitsView([]uint64{0}, 60, 5)
}

// takeRef is the per-bit reference for Take: bit by bit from the cursor,
// the first bit read ending up most significant.
func takeRef(words []uint64, pos, k int) uint64 {
	var v uint64
	for i := pos; i < pos+k; i++ {
		v = v<<1 | words[i>>6]>>uint(i&63)&1
	}
	return v
}

// TestTakeMatchesPerBitReference pins the word-level Take to the per-bit
// reference at every offset within a word and every k from 0 to 64, on
// eager views that start inside a word and reads that straddle two words.
func TestTakeMatchesPerBitReference(t *testing.T) {
	s := New(99)
	words := make([]uint64, 4)
	for i := range words {
		words[i] = s.Uint64()
	}
	for viewOff := 0; viewOff < 64; viewOff += 7 {
		for skip := 0; skip < 64; skip++ {
			for k := 0; k <= 64; k++ {
				b := NewBitsView(words, viewOff, 64*len(words)-viewOff)
				b.Take(skip)
				pos := viewOff + skip
				if got, want := b.Take(k), takeRef(words, pos, k); got != want {
					t.Fatalf("view at %d, after %d bits: Take(%d) = %#x, want %#x", viewOff, skip, k, got, want)
				}
				if b.Remaining() != 64*len(words)-pos-k {
					t.Fatalf("view at %d: Remaining after Take(%d) = %d", viewOff, k, b.Remaining())
				}
			}
		}
	}
}

// countingFiller computes a lazy view's bits from a fixed string,
// recording the fills it is asked for.
type countingFiller struct {
	src   []uint64
	calls [][2]int
}

func (f *countingFiller) Fill(words []uint64, from, to int) {
	f.calls = append(f.calls, [2]int{from, to})
	for i := from; i < to; i++ {
		off := uint(i & 63)
		words[i>>6] = words[i>>6]&^(1<<off) | (f.src[i>>6]>>off&1)<<off
	}
}

// TestLazyViewFillsOnlyWhatIsRead checks a lazy view: each Take past the
// fill mark asks the filler for exactly the missing bits, in order; reads
// equal the eager view of the same string (also through TakeIntn's
// exhaustion fallback); garbage past the fill mark never leaks; and the
// budget panics as an eager view's does.
func TestLazyViewFillsOnlyWhatIsRead(t *testing.T) {
	s := New(5)
	src := []uint64{s.Uint64(), s.Uint64()}
	f := &countingFiller{src: src}
	garbage := []uint64{^uint64(0), ^uint64(0)}
	var lazy Bits
	lazy.SetLazy(garbage, 100, f)
	eager := NewBits(src, 100)
	for _, k := range []int{0, 3, 61, 1, 0, 20} {
		if a, b := lazy.Take(k), eager.Take(k); a != b {
			t.Fatalf("Take(%d): lazy %#x, eager %#x", k, a, b)
		}
	}
	want := [][2]int{{0, 3}, {3, 64}, {64, 65}, {65, 85}}
	if fmt.Sprint(f.calls) != fmt.Sprint(want) {
		t.Fatalf("fills %v, want %v", f.calls, want)
	}
	if lazy.Filler() != f {
		t.Fatal("Filler does not return the view's filler")
	}
	if a, b := lazy.TakeIntn(1<<20), eager.TakeIntn(1<<20); a != b || lazy.Remaining() != 0 {
		t.Fatalf("exhaustion fallback: lazy %d, eager %d, remaining %d", a, b, lazy.Remaining())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overdraw of a lazy view")
		}
	}()
	lazy.Take(1)
}
