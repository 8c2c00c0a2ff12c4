package prg

import (
	"fmt"
	"testing"

	"parcolor/internal/rng"
)

// expandRef repacks the first nbits of p.Expand(seed) the way the naive
// ChunkedSource construction does: the reference for bit-identity.
func expandRef(p PRG, seed uint64, nbits int) []uint64 {
	b := p.Expand(seed)
	words := make([]uint64, (nbits+63)/64)
	for i := 0; i < nbits; i++ {
		words[i>>6] |= b.Take(1) << uint(i&63)
	}
	return words
}

// bitAt returns bit i of a packed bit string.
func bitAt(words []uint64, i int) uint64 { return words[i>>6] >> uint(i&63) & 1 }

// mustLazy builds a LazySource or fails the test.
func mustLazy(t testing.TB, p PRG, chunkOf []int32, numChunks, bitsPer int) *LazySource {
	t.Helper()
	s, err := NewLazySource(p, chunkOf, numChunks, bitsPer)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// modChunks returns the layout chunkOf[v] = v mod numChunks over n nodes.
func modChunks(n, numChunks int) []int32 {
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v % numChunks)
	}
	return chunkOf
}

// readChunk reads a whole view in the given read sizes, cycling through
// them, and returns its bits packed LSB-first.
func readChunk(b *rng.Bits, sizes ...int) []uint64 {
	n := b.Remaining()
	out := make([]uint64, (n+63)/64)
	for i, pos := 0, 0; pos < n; i++ {
		k := min(sizes[i%len(sizes)], n-pos)
		v := b.Take(k)
		for j := 0; j < k; j++ {
			out[(pos+j)>>6] |= (v >> uint(k-1-j) & 1) << uint((pos+j)&63)
		}
		pos += k
	}
	return out
}

// TestExpandIntoBitIdentical reads whole generator outputs through lazy
// views: a one-chunk layout of nbits bits must yield Expand's first nbits
// bits, for KWise and Nisan (w = 64 and 17) at lengths around a word
// boundary and the full output, read bit by bit, in word-straddling sizes
// and in whole words.
func TestExpandIntoBitIdentical(t *testing.T) {
	gens := []PRG{
		NewKWise(4, 6, 300),
		NewKWise(2, 5, 64),
		NewNisan(64, 3, 6),
		NewNisan(17, 4, 5),
	}
	for _, p := range gens {
		for _, nbits := range []int{1, 63, 64, 65, p.OutputBits()} {
			if nbits > p.OutputBits() {
				continue
			}
			src := mustLazy(t, p, []int32{0}, 1, nbits)
			var cur rng.Bits
			for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 3 {
				src.Reseed(seed)
				ref := expandRef(p, seed, nbits)
				for _, sizes := range [][]int{{1}, {13, 64, 7}, {64}} {
					src.BitsForInto(0, &cur)
					got := readChunk(&cur, sizes...)
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("%s seed=%d nbits=%d reads %v word %d: %x != %x",
								p.Name(), seed, nbits, sizes, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}

// TestChunkedScratchMatchesNewChunkedSource walks a KWise seed space
// twice, in opposite orders, through one reused cursor: every node's lazy
// chunk must equal its NewChunkedSource view, so reseeding and re-pointing
// leave no residue.
func TestChunkedScratchMatchesNewChunkedSource(t *testing.T) {
	const numChunks, bitsPer = 7, 33
	p := NewKWise(4, 5, RequiredOutputBits(numChunks, bitsPer))
	chunkOf := modChunks(20, numChunks)
	src := mustLazy(t, p, chunkOf, numChunks, bitsPer)
	var cur rng.Bits
	order := append(seedOrder(NumSeeds(p)), seedOrderRev(NumSeeds(p))...)
	for _, seed := range order {
		src.Reseed(seed)
		want, err := NewChunkedSource(p, seed, chunkOf, numChunks, bitsPer)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < int32(len(chunkOf)); v++ {
			src.BitsForInto(v, &cur)
			w := want.BitsFor(v)
			for w.Remaining() > 0 {
				if a, b := cur.Take(1), w.Take(1); a != b {
					t.Fatalf("seed=%d node=%d: chunk bits differ", seed, v)
				}
			}
			if cur.Remaining() != 0 {
				t.Fatalf("seed=%d node=%d: leftover bits", seed, v)
			}
		}
	}
}

// TestExpandChunksIntoBitIdentical reads arbitrary chunk subsets — at a
// chunk width that straddles words, duplicates included — through a
// cursor dirtied by another seed's reads, for both random-access
// generators: each chunk must reproduce the full expansion's bits.
func TestExpandChunksIntoBitIdentical(t *testing.T) {
	const numChunks, bitsPer = 11, 37
	nbits := numChunks * bitsPer
	gens := []PRG{
		NewKWise(4, 5, nbits),
		NewNisan(64, 4, 5),
		NewNisan(23, 5, 4),
	}
	subsets := [][]int32{
		{0},
		{numChunks - 1},
		{3, 7, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{5, 5, 2},
	}
	chunkOf := modChunks(numChunks, numChunks)
	for _, p := range gens {
		src := mustLazy(t, p, chunkOf, numChunks, bitsPer)
		var cur rng.Bits
		for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 5 {
			ref := expandRef(p, seed, nbits)
			for _, chunks := range subsets {
				// Dirty the cursor with a different seed's reads.
				src.Reseed(seed ^ 1)
				src.BitsForInto(chunks[0], &cur)
				readChunk(&cur, 64)
				src.Reseed(seed)
				for _, c := range chunks {
					src.BitsForInto(c, &cur)
					got := readChunk(&cur, 5, 64, 1)
					for i := 0; i < bitsPer; i++ {
						if bitAt(got, i) != bitAt(ref, int(c)*bitsPer+i) {
							t.Fatalf("%s seed=%d chunk=%d bit %d differs", p.Name(), seed, c, i)
						}
					}
				}
			}
		}
	}
}

// TestExpandChunksIntoEveryK covers KWise chunk views at every
// independence E6 uses (and k = 1), for lone chunks, neighbours that share
// a word and the whole layout, each read in a partial prefix first and
// then in full through a fresh pointing.
func TestExpandChunksIntoEveryK(t *testing.T) {
	const numChunks, bitsPer = 9, 29
	nbits := numChunks * bitsPer
	subsets := [][]int32{{4}, {1, 2}, {8, 0, 3}, {2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}}
	chunkOf := modChunks(numChunks, numChunks)
	for _, k := range []int{1, 2, 4, 8} {
		p := NewKWise(k, 4, nbits)
		src := mustLazy(t, p, chunkOf, numChunks, bitsPer)
		var cur rng.Bits
		for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 3 {
			src.Reseed(seed)
			ref := expandRef(p, seed, nbits)
			for _, chunks := range subsets {
				for _, c := range chunks {
					src.BitsForInto(c, &cur)
					if got := cur.Take(11); got != readBits(ref, int(c)*bitsPer, 11) {
						t.Fatalf("k=%d seed=%d chunk=%d: prefix %b", k, seed, c, got)
					}
					src.BitsForInto(c, &cur)
					got := readChunk(&cur, 3)
					for i := 0; i < bitsPer; i++ {
						if bitAt(got, i) != bitAt(ref, int(c)*bitsPer+i) {
							t.Fatalf("k=%d seed=%d chunk=%d: bit %d wrong", k, seed, c, i)
						}
					}
				}
			}
		}
	}
}

// readBits returns bits [off, off+k) of a packed string, first bit most
// significant: what Take(k) returns there.
func readBits(words []uint64, off, k int) uint64 {
	var v uint64
	for i := off; i < off+k; i++ {
		v = v<<1 | bitAt(words, i)
	}
	return v
}

// TestExpandChunksIntoBoundsPanic: a node mapped past the layout's chunk
// count is a construction bug, and pointing a view at it panics.
func TestExpandChunksIntoBoundsPanic(t *testing.T) {
	p := NewKWise(4, 4, 128)
	src := mustLazy(t, p, []int32{0, 4}, 4, 32)
	src.Reseed(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range chunk")
		}
	}()
	src.BitsForInto(1, new(rng.Bits))
}

// TestReseedChunksMatchesReseed reads only a few live nodes' chunks per
// seed, after another seed's reads of every chunk, for both generators:
// the live chunks must equal NewChunkedSource's.
func TestReseedChunksMatchesReseed(t *testing.T) {
	const numChunks, bitsPer = 9, 29
	for _, p := range []PRG{
		NewKWise(4, 5, RequiredOutputBits(numChunks, bitsPer)),
		NewNisan(64, 3, 5),
	} {
		chunkOf := modChunks(18, numChunks)
		src := mustLazy(t, p, chunkOf, numChunks, bitsPer)
		var cur rng.Bits
		live := []int32{0, 4, 13, 17}
		for seed := uint64(0); seed < uint64(NumSeeds(p)); seed += 7 {
			src.Reseed(seed ^ 3)
			for v := int32(0); v < int32(len(chunkOf)); v++ {
				src.BitsForInto(v, &cur)
				readChunk(&cur, 64)
			}
			src.Reseed(seed)
			want, err := NewChunkedSource(p, seed, chunkOf, numChunks, bitsPer)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range live {
				src.BitsForInto(v, &cur)
				w := want.BitsFor(v)
				for w.Remaining() > 0 {
					if cur.Take(1) != w.Take(1) {
						t.Fatalf("%s seed=%d node=%d: live chunk bits differ", p.Name(), seed, v)
					}
				}
			}
		}
	}
}

// TestChunkedScratchRejectsShortGenerator: a layout longer than the
// generator's output is refused, as NewChunkedSource refuses it, and so is
// a generator without random access.
func TestChunkedScratchRejectsShortGenerator(t *testing.T) {
	if _, err := NewLazySource(NewKWise(4, 5, 64), []int32{0, 1}, 2, 64); err == nil {
		t.Fatal("expected output-length error")
	}
	bf, err := FindBruteForce(3, 8, ParityTests(4, 2), 1, 3, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLazySource(bf, []int32{0}, 1, 8); err == nil {
		t.Fatal("expected a lazy source over a brute-force table to be refused")
	}
}

// TestChunkedScratchRetarget checks that a retargeted source is
// bit-identical to a freshly constructed one, across generator families
// and layouts, read through one cursor throughout, and that retargeting
// to a layout exceeding the output is refused.
func TestChunkedScratchRetarget(t *testing.T) {
	kw := NewKWise(4, 6, 40*8)
	ni := NewNisan(64, 4, 6)
	chunkA := modChunks(40, 40)
	chunkB := modChunks(25, 5)
	src := mustLazy(t, kw, chunkA, 40, 8)
	var cur rng.Bits
	check := func(p PRG, chunkOf []int32, numChunks, bitsPer int) {
		t.Helper()
		if err := src.Retarget(p, chunkOf, numChunks, bitsPer); err != nil {
			t.Fatal(err)
		}
		fresh := mustLazy(t, p, chunkOf, numChunks, bitsPer)
		for seed := uint64(0); seed < 8; seed++ {
			src.Reseed(seed)
			fresh.Reseed(seed)
			for _, v := range chunkOf[:min(4, len(chunkOf))] {
				src.BitsForInto(v, &cur)
				bb := fresh.BitsFor(v)
				for k := 0; k < bitsPer; k++ {
					if cur.Take(1) != bb.Take(1) {
						t.Fatalf("retargeted source differs at seed %d node %d bit %d", seed, v, k)
					}
				}
			}
		}
	}
	check(kw, chunkA, 40, 8) // unchanged layout
	check(ni, chunkA, 40, 8) // new generator, same layout
	check(kw, chunkB, 5, 16) // smaller layout, reused buffers
	check(kw, chunkA, 40, 8) // back to the original
	if err := src.Retarget(kw, chunkA, 4000, 64); err == nil {
		t.Fatal("Retarget accepted a layout exceeding the generator's output")
	}
}

// lazyGen builds the generator a lazy-view case reads: KWise with
// independence k, or Nisan with block width w, sized for numChunks chunks
// of bitsPer bits.
func lazyGen(nisan bool, param, numChunks, bitsPer int) PRG {
	need := numChunks * bitsPer
	if !nisan {
		return NewKWise(param, 6, need)
	}
	levels := 0
	for param<<levels < need {
		levels++
	}
	return NewNisan(param, levels, 6)
}

// runScript replays a read script on a lazy view and an eager view of the
// same chunk and fails at the first read that differs. Each script byte
// is one read: Take of 1–64 bits, a TakeIntn whose bound forces
// rejections, a TakeBool, or Take of everything left (at most 64), every
// size clamped to the remaining budget. Once the budget is spent, the
// last reads run TakeIntn's exhaustion fallback.
func runScript(t testing.TB, what string, lazy, eager *rng.Bits, script []byte) {
	t.Helper()
	check := func(i int, op string, a, b uint64) {
		if a != b || lazy.Remaining() != eager.Remaining() {
			t.Fatalf("%s: read %d (%s): lazy %d (remaining %d), eager %d (remaining %d)",
				what, i, op, a, lazy.Remaining(), b, eager.Remaining())
		}
	}
	for i, c := range script {
		arg := int(c >> 2)
		switch c & 3 {
		case 0:
			k := min(1+arg, lazy.Remaining())
			check(i, fmt.Sprintf("Take(%d)", k), lazy.Take(k), eager.Take(k))
		case 1:
			// Bounds just above a power of two reject almost half the draws.
			n := 1<<(arg%12) + 1 + arg/12
			check(i, fmt.Sprintf("TakeIntn(%d)", n), uint64(lazy.TakeIntn(n)), uint64(eager.TakeIntn(n)))
		case 2:
			num, den := arg%7, 7+arg%5
			a, b := lazy.TakeBool(num, den), eager.TakeBool(num, den)
			check(i, fmt.Sprintf("TakeBool(%d,%d)", num, den), boolBit(a), boolBit(b))
		case 3:
			k := min(64, lazy.Remaining())
			check(i, fmt.Sprintf("Take(rest %d)", k), lazy.Take(k), eager.Take(k))
		}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// lazyScripts are the read scripts of TestLazyViewMatchesEagerReadByRead
// (encoding in runScript): single bits, word-straddling takes, rejection
// draws, booleans, reads to the exact end of the budget and exhaustion.
var lazyScripts = map[string][]byte{
	"bits":       {0, 0, 0, 0 | 4<<2, 0 | 62<<2, 0 | 63<<2, 0},
	"draws":      {1 | 12<<2, 1 | 3<<2, 2, 2 | 9<<2, 1 | 40<<2, 1, 0 | 9<<2},
	"to-the-end": {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
	"exhaust": {0 | 30<<2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0 | 5<<2,
		1 | 11<<2, 1 | 11<<2, 2 | 3<<2},
	"mixed": {1 | 50<<2, 0 | 20<<2, 2 | 4<<2, 0 | 63<<2, 1 | 7<<2, 3, 0, 1 | 63<<2, 3, 3},
}

// TestLazyViewMatchesEagerReadByRead replays read scripts on lazy views
// and on NewChunkedSource's eager views of the same chunks, read by read,
// for KWise with k ∈ {1, 2, 4, 8} and Nisan with w ∈ {64, 17}, at chunk
// budgets of 37, 56, 88 and 960 bits, on chunks at the start, middle and
// end of the output. One cursor serves every chunk and seed.
func TestLazyViewMatchesEagerReadByRead(t *testing.T) {
	const numChunks = 9
	type family struct {
		nisan bool
		param int
	}
	fams := []family{{false, 1}, {false, 2}, {false, 4}, {false, 8}, {true, 64}, {true, 17}}
	chunkOf := modChunks(numChunks, numChunks)
	var cur rng.Bits
	for _, fam := range fams {
		for _, bitsPer := range []int{37, 56, 88, 960} {
			p := lazyGen(fam.nisan, fam.param, numChunks, bitsPer)
			src := mustLazy(t, p, chunkOf, numChunks, bitsPer)
			for _, seed := range []uint64{0, 1, 42, 63} {
				src.Reseed(seed)
				eager, err := NewChunkedSource(p, seed, chunkOf, numChunks, bitsPer)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []int32{0, numChunks / 2, numChunks - 1} {
					for name, script := range lazyScripts {
						src.BitsForInto(c, &cur)
						what := fmt.Sprintf("%s bits=%d seed=%d chunk=%d script=%s", p.Name(), bitsPer, seed, c, name)
						runScript(t, what, &cur, eager.BitsFor(c), script)
					}
				}
			}
		}
	}
}

// FuzzLazyChunkView checks a lazy view against the eager view of the same
// chunk, read by read, over generator parameters (family, k or w), seed,
// chunk layout and id, budget and read script (encoding in runScript).
func FuzzLazyChunkView(f *testing.F) {
	f.Add(false, uint8(4), uint8(3), uint16(2), uint16(56), []byte{1 | 12<<2, 0, 3, 3})
	f.Add(true, uint8(64), uint8(9), uint16(0x0305), uint16(88), []byte{0 | 63<<2, 2, 1 | 40<<2})
	f.Add(true, uint8(17), uint8(1), uint16(0x0a09), uint16(960), []byte{3, 3, 3, 3, 1})
	f.Add(false, uint8(1), uint8(0), uint16(0), uint16(37), []byte{0, 0, 0 | 36<<2, 1})
	f.Fuzz(func(t *testing.T, nisan bool, param, seed uint8, layout, budget uint16, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		numChunks := 1 + int(layout>>8)%16
		chunk := int32(int(layout&0xff) % numChunks)
		bitsPer := 1 + int(budget)%1024
		k := 1 + int(param)%8
		if nisan {
			k = 1 + int(param)%64
		}
		p := lazyGen(nisan, k, numChunks, bitsPer)
		s := uint64(seed) % uint64(NumSeeds(p))
		src := mustLazy(t, p, modChunks(numChunks, numChunks), numChunks, bitsPer)
		src.Reseed(s)
		eager, err := NewChunkedSource(p, s, modChunks(numChunks, numChunks), numChunks, bitsPer)
		if err != nil {
			t.Fatal(err)
		}
		runScript(t, fmt.Sprintf("%s bits=%d seed=%d chunk=%d", p.Name(), bitsPer, s, chunk),
			src.BitsFor(chunk), eager.BitsFor(chunk), script)
	})
}

func seedOrder(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

func seedOrderRev(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(n - 1 - i)
	}
	return out
}

// BenchmarkLazySeedReads measures one seed's reads at the chunglu-200k
// shape: identity chunks over 200,000 nodes, 500 live nodes spread across
// them, each reading a 10-bit draw from a 56- or 88-bit budget (the sparse
// TryRandomColor and GenerateSlack steps read about that much). The cost
// per seed is the reseed plus 500 ten-point runs, independent of the
// 200,000 × budget bits the layout declares.
func BenchmarkLazySeedReads(b *testing.B) {
	const n, live = 200_000, 500
	chunkOf := make([]int32, n)
	for v := range chunkOf {
		chunkOf[v] = int32(v)
	}
	for _, bitsPer := range []int{56, 88} {
		b.Run(fmt.Sprintf("bits=%d", bitsPer), func(b *testing.B) {
			p := NewKWise(4, 8, n*bitsPer)
			src := mustLazy(b, p, chunkOf, n, bitsPer)
			var cur rng.Bits
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reseed(uint64(i) & 255)
				for j := 0; j < live; j++ {
					src.BitsForInto(int32(j*(n/live)), &cur)
					sink += cur.Take(10)
				}
			}
			_ = sink
		})
	}
}
