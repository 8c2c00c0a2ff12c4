package deframe

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/prg"
)

// benchSelection builds a real pipeline-shaped scoring problem — a
// GenerateSlack step over a G(n,p) instance with Linial power-graph
// chunking — and measures one full seed selection (no state mutation), the
// exact hot path DerandomizeStep runs per schedule step. n sweeps the
// participant-proportional chunking policy (condexp.ScoreChunks) across
// the small and large regimes.
func benchSelection(b *testing.B, n int, bitwise, naive bool) {
	in := d1lc.TrivialPalettes(graph.Gnp(n, 12.0/float64(n), 1))
	st := hknt.NewState(in)
	build := hknt.BuildColorMiddle(st, hknt.Tunables{LowDeg: 4})
	o := Options{SeedBits: 5, Bitwise: bitwise, NaiveScoring: naive}.withDefaults(in.G.MaxDegree())
	chunkOf, numChunks, _ := chunkAssignment(nil, in.G, chunkRadius, o.MaxChunkGraphEdges)
	var step *hknt.Step
	var parts []int32
	for i := range build.Schedule.Steps {
		s := &build.Schedule.Steps[i]
		if p := s.Participants(st); len(p) > 50 {
			step, parts = s, p
			break
		}
	}
	if step == nil {
		b.Fatal("no populated step")
	}
	gen := buildPRG(o, numChunks, step.Bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res condexp.Result
		if naive {
			res, _, _ = derandomizeStepNaive(st, step, parts, gen, chunkOf, numChunks, o)
		} else {
			eng := newStepEngine(st, step, parts, gen, chunkOf, numChunks, nil)
			res, _, _ = eng.selectSeedTable(o)
		}
		if res.NumSeeds != 1<<o.SeedBits {
			b.Fatal("bad selection")
		}
	}
}

func BenchmarkSeedSelection(b *testing.B) {
	b.Run("naive/flat", func(b *testing.B) { benchSelection(b, 300, false, true) })
	b.Run("naive/bitwise", func(b *testing.B) { benchSelection(b, 300, true, true) })
	b.Run("table/flat", func(b *testing.B) { benchSelection(b, 300, false, false) })
	b.Run("table/bitwise", func(b *testing.B) { benchSelection(b, 300, true, false) })
}

// BenchmarkSeedSelectionLarge is the n=3000 point of the adaptive
// score-chunk sweep: participant-proportional chunking gives the table
// ~188 rows here where the old fixed cap gave 64.
func BenchmarkSeedSelectionLarge(b *testing.B) {
	b.Run("naive/flat", func(b *testing.B) { benchSelection(b, 3000, false, true) })
	b.Run("table/flat", func(b *testing.B) { benchSelection(b, 3000, false, false) })
	b.Run("table/bitwise", func(b *testing.B) { benchSelection(b, 3000, true, false) })
}

// BenchmarkChunkedSourceReseed isolates the PRG re-expansion cost: naive
// NewChunkedSource per seed versus the pooled scratch's in-place Reseed.
func BenchmarkChunkedSourceReseed(b *testing.B) {
	const numChunks, bitsPer = 256, 40
	gen := prg.NewKWise(4, 8, prg.RequiredOutputBits(numChunks, bitsPer))
	chunkOf := make([]int32, 300)
	for v := range chunkOf {
		chunkOf[v] = int32(v % numChunks)
	}
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prg.NewChunkedSource(gen, uint64(i)&255, chunkOf, numChunks, bitsPer); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reseed", func(b *testing.B) {
		cs, err := prg.NewChunkedScratch(gen, chunkOf, numChunks, bitsPer)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = cs.Reseed(uint64(i) & 255)
		}
	})
}
