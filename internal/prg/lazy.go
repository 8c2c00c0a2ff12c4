package prg

import (
	"fmt"

	"parcolor/internal/hashfam"
	"parcolor/internal/rng"
)

// This file implements the reader-driven chunk path of the seed-scoring
// engines: a LazySource hands out lazy rng.Bits views whose bits are
// computed only when a draw reaches them. A Definition 5 budget reserves
// rejection-sampling room (rng.IntnBits allows 8 tries per draw), so a
// draw typically reads a small prefix of its node's chunk, and a seed
// then costs the bits its draws read, not the chunks' declared budgets.
//
// Both supported generators are random access: KWise output bit i is the
// LSB of the seed polynomial at i+1, and a Nisan leaf block is x0 pushed
// through the level hashes its index selects. Every bit a view yields
// equals the same bit of PRG.Expand, by construction and by test
// (NewChunkedSource stays the reference), so the seed chosen by the method
// of conditional expectations does not depend on which path scored it.

// LazySource is a reseedable chunk source for the KWise and Nisan
// generators: Reseed draws a seed's generator state (the KWise polynomial
// and its forward-difference rows in O(k²), the Nisan start block and
// level multipliers), with no per-chunk work, and BitsForInto points a
// reader's cursor at a node's chunk.
//
// The per-seed state is read-only once Reseed returns, so any number of
// goroutines may read views of one LazySource concurrently. All mutable
// expansion state lives in the cursor: a reader's chunk-sized word buffer
// and its stepper or leaf-block cache, kept in the rng.Bits passed to
// BitsForInto and reused across nodes and seeds. A cursor must not be
// shared between goroutines; Reseed must not run while views are read.
type LazySource struct {
	kw       *KWise // exactly one of kw and ni is set
	ni       *Nisan
	chunkOf  []int32
	numChunk int
	bitsPer  int

	poly hashfam.Poly // KWise polynomial at the current seed
	raw  []uint64     // KWise coefficient draw buffer
	x0   uint64       // Nisan start block at the current seed
	mult []uint64     // Nisan level multipliers at the current seed
}

// NewLazySource validates the chunk layout as NewChunkedSource does and
// returns a source to Reseed before the first read. p must be a *KWise or
// a *Nisan.
func NewLazySource(p PRG, chunkOf []int32, numChunks, bitsPer int) (*LazySource, error) {
	s := new(LazySource)
	if err := s.Retarget(p, chunkOf, numChunks, bitsPer); err != nil {
		return nil, err
	}
	return s, nil
}

// Retarget rebinds s to a new (generator, chunk layout) pair, validating as
// NewLazySource does and keeping the draw buffers, so a pooled source can
// be retargeted on every checkout. The source must be reseeded afterwards.
func (s *LazySource) Retarget(p PRG, chunkOf []int32, numChunks, bitsPer int) error {
	if need := numChunks * bitsPer; p.OutputBits() < need {
		return fmt.Errorf("prg: %s outputs %d bits, need %d (%d chunks × %d)",
			p.Name(), p.OutputBits(), need, numChunks, bitsPer)
	}
	switch g := p.(type) {
	case *KWise:
		s.kw, s.ni = g, nil
	case *Nisan:
		s.kw, s.ni = nil, g
	default:
		return fmt.Errorf("prg: no lazy chunk views for %s", p.Name())
	}
	s.chunkOf, s.numChunk, s.bitsPer = chunkOf, numChunks, bitsPer
	return nil
}

// Reseed draws the generator's state at seed exactly as Expand draws it.
func (s *LazySource) Reseed(seed uint64) {
	if s.kw != nil {
		s.raw = s.kw.coefs(seed, s.raw)
		s.poly.SetCoef(s.raw)
		return
	}
	s.x0, s.mult = s.ni.draw(seed, s.mult)
}

// BitsFor returns node v's chunk as a fresh lazy view with its own cursor.
func (s *LazySource) BitsFor(v int32) *rng.Bits {
	b := new(rng.Bits)
	s.BitsForInto(v, b)
	return b
}

// BitsForInto points dst at node v's chunk. A dst that last served as a
// lazy view keeps its cursor (buffer and stepper storage), so a reader
// reusing one dst across nodes and seeds allocates nothing; the chunk's
// bits are computed as its draws reach them.
func (s *LazySource) BitsForInto(v int32, dst *rng.Bits) {
	c := s.chunkOf[v]
	if c < 0 || int(c) >= s.numChunk {
		panic(fmt.Sprintf("prg: node %d's chunk %d outside %d chunks", v, c, s.numChunk))
	}
	cur, _ := dst.Filler().(*cursor)
	if cur == nil {
		cur = new(cursor)
	}
	cur.src = s
	cur.base = int(c) * s.bitsPer
	cur.blk = -1
	nw := (s.bitsPer + 63) / 64
	if cap(cur.words) < nw {
		cur.words = make([]uint64, nw)
	}
	dst.SetLazy(cur.words[:nw], s.bitsPer, cur)
}

// cursor is one reader's expansion state: the rng.Filler of its lazy
// views. Fills run in order from bit 0 of the chunk, so the KWise stepper
// always sits at the chunk's next unfilled point and the Nisan cache holds
// the leaf block the previous fill ended in.
type cursor struct {
	src   *LazySource
	base  int // the chunk's first bit in the generator's output
	words []uint64
	step  hashfam.PolyStepper
	blk   int    // index of the cached Nisan leaf block, −1 for none
	blkX  uint64 // its value
}

// Fill implements rng.Filler: it writes the chunk's bits [from, to) into
// words, one destination word (or, for Nisan, one leaf block) at a time,
// keeping the bits below from.
func (c *cursor) Fill(words []uint64, from, to int) {
	s := c.src
	if s.kw != nil {
		if from == 0 {
			c.step = s.poly.Stepper(uint64(c.base)+1, c.step.Diffs())
		}
		for i := from; i < to; {
			m := min(64-i&63, to-i)
			put(words, i, c.step.Bits(m))
			i += m
		}
		return
	}
	w := s.ni.w
	for i := from; i < to; {
		g := c.base + i
		b, o := g/w, g%w
		if b != c.blk {
			c.blk, c.blkX = b, s.leaf(b)
		}
		m := min(w-o, 64-i&63, to-i)
		put(words, i, c.blkX>>uint(o)&(^uint64(0)>>uint(64-m)))
		i += m
	}
}

// put writes x at bit position i of words, where x's bits all fit before
// the end of word i>>6, keeping the bits below i and clearing those above
// the written ones.
func put(words []uint64, i int, x uint64) {
	off := uint(i & 63)
	words[i>>6] = words[i>>6]&(1<<off-1) | x<<off
}

// leaf returns Nisan leaf block b at the current seed: x0 pushed through
// the level hashes selected by b's bits (bit L−1−lvl chooses whether level
// lvl hashed), the random-access form of Expand's level-by-level doubling.
func (s *LazySource) leaf(b int) uint64 {
	p := s.ni
	x := s.x0
	for lvl, a := range s.mult {
		if b>>uint(p.levels-1-lvl)&1 == 1 {
			x = a * x
			x = (x ^ x>>29) & p.mask()
		}
	}
	return x
}
