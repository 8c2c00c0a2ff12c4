// Package prg implements the pseudorandom generators of Section 4.2 and
// the chunk-distribution scheme of Lemma 10.
//
// A PRG here is a deterministic map from a short enumerable seed space
// {0,…,2^d−1} to a long bit string. Lemma 10 derandomizes a normal
// (τ,Δ)-round procedure by (i) coloring G^{4τ} so nodes within distance 4τ
// get distinct chunk indices, (ii) slicing one PRG output string into
// per-chunk blocks of the procedure's declared bits-per-node, and
// (iii) choosing the seed by the method of conditional expectations over
// the measured count of strong-success-property failures.
//
// The paper's PRG (Proposition 8) exists by the probabilistic method and
// is found by exponential search (Lemma 9). BruteForce reproduces that
// search faithfully at toy scale against an explicit statistical-test
// family; KWise and Nisan are the scalable generators used by the actual
// pipeline. The framework is *self-certifying* — seed selection minimizes
// the measured failure count and failures are deferred — so generator
// quality shifts only the deferral rate (experiment E6), never correctness.
//
// Two chunk sources slice an output string per node. ChunkedSource expands
// the whole string at one seed (PRG.Expand) and is the reference the
// naive scoring oracles and the MPC simulation read. LazySource is the
// seed-scoring engines' path: reseeded per seed, it computes a chunk's
// bits only as a reader's draws reach them, bit-identical to
// ChunkedSource on every read.
package prg

import (
	"fmt"
	"math/bits"

	"parcolor/internal/hashfam"
	"parcolor/internal/rng"
)

// PRG is a deterministic seed-to-bits expander with an enumerable seed
// space.
type PRG interface {
	// Name identifies the generator in experiment tables.
	Name() string
	// SeedBits is the seed length d; the seed space is [0, 2^d).
	SeedBits() int
	// OutputBits is the length of the expanded bit string.
	OutputBits() int
	// Expand writes the pseudorandom bit string for the given seed into a
	// fresh Bits value. seed must be < 2^SeedBits.
	Expand(seed uint64) *rng.Bits
}

// NumSeeds returns the size of p's seed space.
func NumSeeds(p PRG) int { return 1 << p.SeedBits() }

// --- k-wise polynomial PRG ------------------------------------------------

// KWise expands a seed into output bit i = LSB of a degree-(k−1)
// polynomial over GF(2^61−1) evaluated at i+1, with coefficients derived
// from the seed by SplitMix64. With full-entropy coefficients the bits are
// exactly k-wise independent; with a d-bit master seed this is the
// size-2^d subfamily obtained by seeding the coefficient generator, which
// is the standard engineering compromise (quality measured by E6).
type KWise struct {
	k        int
	seedBits int
	outBits  int
}

// NewKWise builds a k-wise PRG with the given seed length and output
// length in bits.
func NewKWise(k, seedBits, outBits int) *KWise {
	if k < 1 || seedBits < 1 || seedBits > 30 || outBits < 1 {
		panic("prg: bad KWise parameters")
	}
	return &KWise{k: k, seedBits: seedBits, outBits: outBits}
}

func (p *KWise) Name() string    { return fmt.Sprintf("kwise%d/d%d", p.k, p.seedBits) }
func (p *KWise) SeedBits() int   { return p.seedBits }
func (p *KWise) OutputBits() int { return p.outBits }

func (p *KWise) Expand(seed uint64) *rng.Bits {
	h := hashfam.NewPoly(p.coefs(seed, nil))
	words := make([]uint64, (p.outBits+63)/64)
	for i := 0; i < p.outBits; i++ {
		if h.Eval(uint64(i)+1)&1 == 1 {
			words[i>>6] |= 1 << uint(i&63)
		}
	}
	return rng.NewBits(words, p.outBits)
}

// coefs draws the polynomial's k seed words at seed into dst, reusing its
// storage when large enough: the one seed-to-polynomial map of Expand and
// LazySource.
func (p *KWise) coefs(seed uint64, dst []uint64) []uint64 {
	if cap(dst) < p.k {
		dst = make([]uint64, p.k)
	}
	dst = dst[:p.k]
	s := rng.New(rng.Hash2(0x5EED<<32|seed, uint64(p.k)))
	for i := range dst {
		dst[i] = s.Uint64()
	}
	return dst
}

// --- Nisan-style recursive PRG --------------------------------------------

// Nisan is Nisan's space-bounded generator: a seed block of w bits plus L
// pairwise-independent hash functions h_1…h_L; the output is the leaves of
// a depth-L binary recursion G_{i}(x) = G_{i−1}(x) ∘ G_{i−1}(h_i(x)).
// Output length is 2^L·w bits. Hash functions are multiply-shift instances
// whose multipliers derive from the master seed.
type Nisan struct {
	w        int // block width in bits (≤ 64)
	levels   int
	seedBits int
}

// NewNisan builds a Nisan PRG with block width w bits, the given recursion
// depth, and a d-bit master seed space.
func NewNisan(w, levels, seedBits int) *Nisan {
	if w < 1 || w > 64 || levels < 0 || levels > 24 || seedBits < 1 || seedBits > 30 {
		panic("prg: bad Nisan parameters")
	}
	return &Nisan{w: w, levels: levels, seedBits: seedBits}
}

func (p *Nisan) Name() string    { return fmt.Sprintf("nisan%dx2^%d/d%d", p.w, p.levels, p.seedBits) }
func (p *Nisan) SeedBits() int   { return p.seedBits }
func (p *Nisan) OutputBits() int { return p.w << p.levels }

func (p *Nisan) Expand(seed uint64) *rng.Bits {
	x0, multipliers := p.draw(seed, nil)
	// blocks holds the leaf sequence; expand level by level.
	blocks := []uint64{x0}
	for lvl := 0; lvl < p.levels; lvl++ {
		a := multipliers[lvl]
		next := make([]uint64, 0, 2*len(blocks))
		for _, b := range blocks {
			hb := a * b
			hb = (hb ^ hb>>29) & p.mask() // cheap finalization to spread low bits
			next = append(next, b, hb)
		}
		blocks = next
	}
	out := rngBitsFromBlocks(blocks, p.w)
	return out
}

// draw returns the start block and the level hashes' multipliers at seed,
// the latter in mult's storage when large enough: the one seed-to-state
// map of Expand and LazySource.
func (p *Nisan) draw(seed uint64, mult []uint64) (x0 uint64, _ []uint64) {
	s := rng.New(rng.Hash2(0x417A<<32|seed, uint64(p.levels)))
	x0 = s.Uint64() & p.mask()
	if cap(mult) < p.levels {
		mult = make([]uint64, p.levels)
	}
	mult = mult[:p.levels]
	for i := range mult {
		mult[i] = s.Uint64() | 1
	}
	return x0, mult
}

// mask keeps a value's low w bits, the block width.
func (p *Nisan) mask() uint64 { return ^uint64(0) >> uint(64-p.w) }

// rngBitsFromBlocks packs len(blocks) blocks of w bits each into a Bits.
func rngBitsFromBlocks(blocks []uint64, w int) *rng.Bits {
	total := len(blocks) * w
	words := make([]uint64, (total+63)/64)
	pos := 0
	for _, b := range blocks {
		for j := 0; j < w; j++ {
			if b>>uint(j)&1 == 1 {
				words[pos>>6] |= 1 << uint(pos&63)
			}
			pos++
		}
	}
	return rng.NewBits(words, total)
}

// --- Brute-force existential PRG (Proposition 8 at toy scale) -------------

// Test is a statistical test: a named predicate over output bit strings.
type Test struct {
	Name string
	// Eval reads (and should fully consume or at least not overdraw) the
	// bits it inspects and returns the test outcome.
	Eval func(b *rng.Bits) bool
	// MeanNum/MeanDen give the exact acceptance probability under uniform
	// bits (e.g. 1/2 for a parity test).
	MeanNum, MeanDen int
}

// ParityTests returns the parity tests χ_S for every non-empty subset S of
// the first m output bits with |S| ≤ maxSize. Each has mean exactly 1/2.
func ParityTests(m, maxSize int) []Test {
	var tests []Test
	var build func(start int, chosen []int)
	build = func(start int, chosen []int) {
		if len(chosen) > 0 {
			set := append([]int(nil), chosen...)
			tests = append(tests, Test{
				Name: fmt.Sprintf("parity%v", set),
				Eval: func(b *rng.Bits) bool {
					var x uint64
					prev := 0
					for _, idx := range set {
						b.Take(idx - prev) // skip
						x ^= b.Take(1)
						prev = idx + 1
					}
					return x == 1
				},
				MeanNum: 1, MeanDen: 2,
			})
		}
		if len(chosen) == maxSize {
			return
		}
		for i := start; i < m; i++ {
			build(i+1, append(chosen, i))
		}
	}
	build(0, nil)
	return tests
}

// ConjunctionTests returns, for every subset S of the first m bits with
// 1 ≤ |S| ≤ maxSize and every sign pattern over S, the test "all bits in S
// match the pattern". The exact uniform mean is 2^{−|S|}. Together with
// ParityTests this covers the classical small-junta distinguishers.
func ConjunctionTests(m, maxSize int) []Test {
	var tests []Test
	var build func(start int, idx []int)
	build = func(start int, idx []int) {
		if len(idx) > 0 {
			set := append([]int(nil), idx...)
			den := 1 << len(set)
			for pat := 0; pat < den; pat++ {
				pattern := pat
				tests = append(tests, Test{
					Name: fmt.Sprintf("conj%v/%b", set, pattern),
					Eval: func(b *rng.Bits) bool {
						prev := 0
						for i, bit := range set {
							b.Take(bit - prev)
							want := uint64(pattern >> i & 1)
							if b.Take(1) != want {
								return false
							}
							prev = bit + 1
						}
						return true
					},
					MeanNum: 1, MeanDen: den,
				})
			}
		}
		if len(idx) == maxSize {
			return
		}
		for i := start; i < m; i++ {
			build(i+1, append(idx, i))
		}
	}
	build(0, nil)
	return tests
}

// MaxBias measures the worst advantage of any test in the family against
// the generator over its full seed space: the empirical (t,ε) of
// Definition 6/7, returned as a float. Feasible only for enumerable seed
// spaces, which is the regime the framework runs in anyway.
func MaxBias(p PRG, tests []Test) float64 {
	nSeeds := NumSeeds(p)
	worst := 0.0
	for _, tst := range tests {
		accept := 0
		for seed := 0; seed < nSeeds; seed++ {
			b := p.Expand(uint64(seed))
			if tst.Eval(b) {
				accept++
			}
		}
		mean := float64(tst.MeanNum) / float64(tst.MeanDen)
		bias := float64(accept)/float64(nSeeds) - mean
		if bias < 0 {
			bias = -bias
		}
		if bias > worst {
			worst = bias
		}
	}
	return worst
}

// BruteForce is the Proposition 8 construction at toy scale: its Expand
// table was found by deterministic exhaustive search over candidate tables
// until one (ε)-fools every test in a given family. Seed space and output
// length are tiny by design; the value of this type is demonstrating that
// the paper's "compute the PRG by brute force, then hard-code it" step is
// real and testable.
type BruteForce struct {
	seedBits int
	outBits  int
	table    []uint64 // one output word per seed (outBits ≤ 64)
	name     string
}

// FindBruteForce searches candidate tables (candidate t = table filled from
// SplitMix64 stream t) until all tests pass with bias ≤ epsNum/epsDen, or
// maxCandidates tables were tried. The search is deterministic.
func FindBruteForce(seedBits, outBits int, tests []Test, epsNum, epsDen, maxCandidates int) (*BruteForce, error) {
	if outBits > 64 || seedBits > 16 {
		return nil, fmt.Errorf("prg: brute force limited to ≤64 output bits and ≤16 seed bits")
	}
	nSeeds := 1 << seedBits
	table := make([]uint64, nSeeds)
	mask := ^uint64(0)
	if outBits < 64 {
		mask = (1 << uint(outBits)) - 1
	}
	for cand := 0; cand < maxCandidates; cand++ {
		s := rng.New(rng.Hash2(0xB507E, uint64(cand)))
		for i := range table {
			table[i] = s.Uint64() & mask
		}
		if fools(table, outBits, tests, epsNum, epsDen) {
			return &BruteForce{
				seedBits: seedBits, outBits: outBits,
				table: append([]uint64(nil), table...),
				name:  fmt.Sprintf("brute/d%d(t%d)", seedBits, cand),
			}, nil
		}
	}
	return nil, fmt.Errorf("prg: no table fooling all %d tests within %d candidates", len(tests), maxCandidates)
}

// fools checks |P_seeds[T accepts] − mean(T)| ≤ eps for every test.
func fools(table []uint64, outBits int, tests []Test, epsNum, epsDen int) bool {
	n := len(table)
	for _, tst := range tests {
		accept := 0
		for _, w := range table {
			b := rng.NewBits([]uint64{w}, outBits)
			if tst.Eval(b) {
				accept++
			}
		}
		// |accept/n − MeanNum/MeanDen| ≤ epsNum/epsDen
		lhs := accept*tst.MeanDen - tst.MeanNum*n // scaled by n·MeanDen
		if lhs < 0 {
			lhs = -lhs
		}
		// Compare lhs/(n·MeanDen) ≤ epsNum/epsDen.
		if lhs*epsDen > epsNum*n*tst.MeanDen {
			return false
		}
	}
	return true
}

func (p *BruteForce) Name() string    { return p.name }
func (p *BruteForce) SeedBits() int   { return p.seedBits }
func (p *BruteForce) OutputBits() int { return p.outBits }

func (p *BruteForce) Expand(seed uint64) *rng.Bits {
	return rng.NewBits([]uint64{p.table[seed]}, p.outBits)
}

// --- Chunk distribution (Lemma 10) ----------------------------------------

// ChunkedSource slices one expanded PRG string into per-node chunks
// according to a chunk coloring of G^{4τ}: node v receives the block
// [chunk(v)·bitsPer, (chunk(v)+1)·bitsPer). It expands the generator's
// whole output up front, through PRG.Expand, so it works for every
// generator; it is the reference that LazySource, which computes only the
// bits readers reach, is tested against.
type ChunkedSource struct {
	words    []uint64
	bitsPer  int
	chunkOf  []int32
	numChunk int
}

// NewChunkedSource expands p at seed and prepares per-node chunk views.
// chunkOf[v] ∈ [0, numChunks) must be a proper coloring of G^{4τ} (Linial
// coloring in the pipeline; identity as a fallback). p's output must cover
// numChunks·bitsPer bits.
func NewChunkedSource(p PRG, seed uint64, chunkOf []int32, numChunks, bitsPer int) (*ChunkedSource, error) {
	if need := numChunks * bitsPer; p.OutputBits() < need {
		return nil, fmt.Errorf("prg: %s outputs %d bits, need %d (%d chunks × %d)",
			p.Name(), p.OutputBits(), need, numChunks, bitsPer)
	}
	b := p.Expand(seed)
	need := numChunks * bitsPer
	words := make([]uint64, (need+63)/64)
	for i := range words {
		// Take returns its k bits first-read most significant; reversing
		// them restores the stream's LSB-first word layout.
		k := min(64, need-64*i)
		words[i] = bits.Reverse64(b.Take(k)) >> uint(64-k)
	}
	return &ChunkedSource{words: words, bitsPer: bitsPer, chunkOf: chunkOf, numChunk: numChunks}, nil
}

// BitsFor returns node v's chunk as a zero-copy cursor over the shared
// expansion: nodes in the same chunk get independent cursors over the same
// bits, so concurrent readers are safe.
func (c *ChunkedSource) BitsFor(v int32) *rng.Bits {
	start := int(c.chunkOf[v]) * c.bitsPer
	return rng.NewBitsView(c.words, start, c.bitsPer)
}

// BitsForInto points dst at node v's chunk without allocating: the trials'
// worker loops reuse one cursor per worker across all their nodes. dst must
// not be shared between concurrent readers.
func (c *ChunkedSource) BitsForInto(v int32, dst *rng.Bits) {
	dst.SetView(c.words, int(c.chunkOf[v])*c.bitsPer, c.bitsPer)
}

// RequiredOutputBits reports the PRG output length needed for numChunks
// chunks of bitsPer bits.
func RequiredOutputBits(numChunks, bitsPer int) int { return numChunks * bitsPer }

// SeedBitsForDelta mirrors the paper's seed length d = Θ(log Δ): it
// returns a seed length that grows logarithmically with the target
// maximum degree while staying enumerable (capped at maxBits).
func SeedBitsForDelta(delta, maxBits int) int {
	if delta < 2 {
		delta = 2
	}
	d := 2 * bits.Len(uint(delta))
	if d < 8 {
		d = 8
	}
	if d > maxBits {
		d = maxBits
	}
	return d
}
