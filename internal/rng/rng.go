// Package rng implements the deterministic, splittable random number
// generation used by every randomized component of the repository.
//
// Requirements that math/rand does not meet here:
//
//   - Splittability: a LOCAL-model node v in round r must draw randomness
//     that is a pure function of (rootSeed, v, r), so that algorithms can be
//     replayed, sharded across goroutines without locks, and compared
//     bit-for-bit between the randomized and derandomized pipelines.
//   - Bit streams: Definition 5 procedures consume an explicit number of
//     random bits per node; Source exposes a bit-counted interface so the
//     derandomizer can substitute PRG output chunks transparently.
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014), a 64-bit
// permutation-based generator with a trivially splittable seed schedule.
package rng

import "math/bits"

// golden is the odd constant 2^64/phi used by SplitMix64's Weyl sequence.
const golden = 0x9E3779B97F4A7C15

// mix advances-and-hashes one SplitMix64 step from state z.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Hash2 deterministically combines two 64-bit values into one; it is the
// split function (child seed = Hash2(parent seed, index)).
func Hash2(a, b uint64) uint64 {
	return mix(a + golden*(b+1))
}

// Hash3 combines three 64-bit values.
func Hash3(a, b, c uint64) uint64 {
	return Hash2(Hash2(a, b), c)
}

// Stream is a SplitMix64 stream. The zero value is a valid stream seeded
// with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// At returns the stream for (rootSeed, a): the canonical way to derive a
// per-node stream.
func At(root, a uint64) *Stream { return New(Hash2(root, a)) }

// At2 returns the stream for (rootSeed, a, b): the canonical way to derive
// a per-(node, round) stream.
func At2(root, a, b uint64) *Stream { return New(Hash3(root, a, b)) }

// Uint64 returns the next 64 pseudorandom bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Intn returns a uniform integer in [0, n). n must be positive. It uses
// Lemire's multiply-shift rejection method, so results are exactly uniform.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm fills p with a uniform random permutation of [0, len(p)) using
// Fisher-Yates.
func (s *Stream) Perm(p []int32) {
	for i := range p {
		p[i] = int32(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes xs uniformly at random in place.
func (s *Stream) Shuffle(xs []int32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Bits is a counted bit source: a finite string of pseudorandom (or
// pseudorandom-generator-produced) bits consumed left to right. Definition 5
// procedures receive their per-node randomness as a Bits value so the same
// procedure code runs under true randomness and under PRG chunks.
//
// A view is eager or lazy. An eager view (NewBits, NewBitsView/SetView,
// FreshBits) reads bits that are already in its words. A lazy view
// (SetLazy) holds only the bits below its fill mark and asks its Filler
// for the rest when a Take first reaches past the mark, so a view costs
// the bits its draws read, not its declared budget. Both kinds enforce the
// same budget.
type Bits struct {
	words  []uint64
	pos    int    // bit cursor
	n      int    // end of the view: bits [pos, n) remain
	fill   int    // bits below fill are valid in words; n for eager views
	filler Filler // computes bits at and past fill; nil for eager views
}

// Filler computes a lazy view's bits on demand.
type Filler interface {
	// Fill writes the view's bits [from, to) into words, bit i at
	// words[i>>6], position i&63. Calls come in order: each from is the
	// previous call's to, starting at 0 after SetLazy. Bits of words at
	// and past to may hold anything.
	Fill(words []uint64, from, to int)
}

// NewBits wraps words as a bit string of length n (n <= 64*len(words)).
func NewBits(words []uint64, n int) *Bits {
	if n > 64*len(words) {
		panic("rng: NewBits length exceeds backing words")
	}
	return &Bits{words: words, n: n, fill: n}
}

// NewBitsView returns a read cursor over bits [off, off+n) of words,
// sharing the backing storage: no bits are copied. Many views over one
// expanded bit string may be read concurrently, since a view only mutates
// its own cursor.
func NewBitsView(words []uint64, off, n int) *Bits {
	b := &Bits{}
	b.SetView(words, off, n)
	return b
}

// SetView reinitializes b in place as an eager view over bits [off, off+n)
// of words: the allocation-free counterpart of NewBitsView for
// worker-local cursors reused across many nodes.
func (b *Bits) SetView(words []uint64, off, n int) {
	if off < 0 || n < 0 || off+n > 64*len(words) {
		panic("rng: bits view range exceeds backing words")
	}
	b.words, b.pos, b.n, b.fill, b.filler = words, off, off+n, off+n, nil
}

// SetLazy reinitializes b in place as a lazy view of n bits whose bit i
// lives at words[i>>6], position i&63, and is written by f the first time
// a Take reaches it. words must hold n bits; it belongs to the view (and
// to f) until the next Set call.
func (b *Bits) SetLazy(words []uint64, n int, f Filler) {
	if n < 0 || n > 64*len(words) {
		panic("rng: lazy view exceeds backing words")
	}
	b.words, b.pos, b.n, b.fill, b.filler = words, 0, n, 0, f
}

// Filler returns the filler of a lazy view, nil for an eager one: a lazy
// source re-points a reused cursor at the next chunk through it.
func (b *Bits) Filler() Filler { return b.filler }

// FreshBits draws n truly-pseudorandom bits from stream s.
func FreshBits(s *Stream, n int) *Bits {
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = s.Uint64()
	}
	return &Bits{words: words, n: n, fill: n}
}

// Remaining reports how many bits are left.
func (b *Bits) Remaining() int { return b.n - b.pos }

// Take consumes k bits (k <= 64) and returns them in the low bits of the
// result, most-significant first. It panics if fewer than k bits remain:
// a Definition 5 procedure overdrawing its declared budget is a bug. A
// lazy view first has its filler compute the bits up to the read's end.
//
// The k bits span at most two words. They are loaded LSB-first as one
// word, and bits.Reverse64 turns the first-read bit into the most
// significant of the k.
func (b *Bits) Take(k int) uint64 {
	if k < 0 || k > 64 {
		panic("rng: Take of more than 64 bits")
	}
	end := b.pos + k
	if end > b.n {
		panic("rng: procedure exceeded its declared random-bit budget")
	}
	if k == 0 {
		return 0
	}
	if end > b.fill {
		b.filler.Fill(b.words, b.fill, end)
		b.fill = end
	}
	i, off := b.pos>>6, uint(b.pos&63)
	x := b.words[i] >> off
	if off+uint(k) > 64 {
		x |= b.words[i+1] << (64 - off)
	}
	b.pos = end
	return bits.Reverse64(x) >> (64 - uint(k))
}

// TakeIntn consumes bits to produce an integer in [0, n) by fixed-width
// rejection over ceil(log2 n)-bit draws. On bit exhaustion mid-rejection it
// degrades to the last draw modulo n (slightly biased but total): PRG seed
// subfamilies can produce long rejection runs that true randomness would
// not, and a failing draw must translate into a measurably worse seed
// score, never a crash.
func (b *Bits) TakeIntn(n int) int {
	if n <= 0 {
		panic("rng: TakeIntn with non-positive n")
	}
	if n == 1 {
		return 0
	}
	w := bits.Len(uint(n - 1))
	last := uint64(0)
	drew := false
	for {
		if b.Remaining() < w {
			if b.Remaining() > 0 {
				last = b.Take(b.Remaining())
				drew = true
			}
			if !drew {
				return 0
			}
			return int(last % uint64(n))
		}
		v := b.Take(w)
		if v < uint64(n) {
			return int(v)
		}
		last = v
		drew = true
	}
}

// TakeBool consumes bits to decide true with probability num/den, using a
// TakeIntn(den) draw.
func (b *Bits) TakeBool(num, den int) bool {
	return b.TakeIntn(den) < num
}

// IntnBits reports a safe per-draw bit budget for TakeIntn(n): enough for
// the expected geometric rejection to succeed with overwhelming probability
// (8 attempts of ceil(log2 n) bits each).
func IntnBits(n int) int {
	if n <= 1 {
		return 1
	}
	return 8 * bits.Len(uint(n-1))
}
