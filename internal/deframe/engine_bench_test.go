package deframe

import (
	"fmt"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
)

// benchSelection builds a real pipeline-shaped scoring problem — a
// GenerateSlack step over a G(n,p) instance with Linial power-graph
// chunking — and measures one full seed selection by sel (no state
// mutation), the exact hot path derandomizeStep runs per schedule step,
// at a small (n = 300) and a large (n = 3000) participant count.
func benchSelection(b *testing.B, n int, bitwise bool, sel seedSelector) {
	in := d1lc.TrivialPalettes(graph.Gnp(n, 12.0/float64(n), 1))
	st := hknt.NewState(in)
	build := hknt.BuildColorMiddle(st, hknt.Tunables{LowDeg: 4})
	o := Options{SeedBits: 5, Bitwise: bitwise}.withDefaults(in.G.MaxDegree())
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
		res, _, _ := sel(st, step, parts, gen, chunkOf, numChunks, o)
		if res.NumSeeds != 1<<o.SeedBits {
			b.Fatal("bad selection")
		}
	}
}

// BenchmarkSeedSelection measures the engine against the naive oracle
// (which selects through the same condexp.Select, so its bitwise row
// spends 2^d scorer calls, like the engine's), plus the engine over a
// fixed participant set in growing instances.
func BenchmarkSeedSelection(b *testing.B) {
	b.Run("naive/flat", func(b *testing.B) { benchSelection(b, 300, false, selectNaive) })
	b.Run("naive/bitwise", func(b *testing.B) { benchSelection(b, 300, true, selectNaive) })
	b.Run("table/flat", func(b *testing.B) { benchSelection(b, 300, false, selectByEngine) })
	b.Run("table/bitwise", func(b *testing.B) { benchSelection(b, 300, true, selectByEngine) })
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("table/fixed512/n=%d", n), func(b *testing.B) { benchFixedParticipants(b, n) })
	}
}

// fixedParts is a TryRandomColor step over a fixed participant set inside
// a Chung–Lu instance, with its chunk layout.
type fixedParts struct {
	st        *hknt.State
	step      hknt.Step
	parts     []int32
	chunkOf   []int32
	numChunks int
}

// fixedPartsOf memoizes the fixtures: b.Run calls a benchmark body once
// per b.N it tries, and building a 10^5-node instance each time would
// dominate the run.
var fixedPartsOf = map[int]*fixedParts{}

// fixedPartsFixture builds ChungLu(n, 2.5, 8) and picks 512 participants
// spread evenly over its nodes of degree 12 to 32: high-degree nodes for an
// average degree of 8 (about the top tenth), with the same degree
// distribution at every n, so every instance hands Propose the same number
// of participants, arcs and random bits (palettes of at most 33 colors
// need TryRandomColorBits(33) bits).
func fixedPartsFixture(b *testing.B, n int) *fixedParts {
	if f := fixedPartsOf[n]; f != nil {
		return f
	}
	in := d1lc.TrivialPalettes(graph.ChungLu(n, 2.5, 8, 1))
	var band []int32
	for v := int32(0); v < int32(n); v++ {
		if d := in.G.Degree(v); d >= 12 && d <= 32 {
			band = append(band, v)
		}
	}
	const k = 512
	if len(band) < k {
		b.Fatalf("n=%d: %d nodes of degree 12..32, need %d", n, len(band), k)
	}
	parts := make([]int32, k)
	for i := range parts {
		parts[i] = band[i*len(band)/k]
	}
	o := Options{}.withDefaults(in.G.MaxDegree())
	chunkOf, numChunks, _ := chunkAssignment(nil, in.G, chunkRadius, o.MaxChunkGraphEdges)
	f := &fixedParts{
		st: hknt.NewState(in),
		step: hknt.Step{
			Name:         "fixed512/trc",
			Tau:          2,
			Bits:         hknt.TryRandomColorBits(33),
			Participants: func(*hknt.State) []int32 { return parts },
			Propose:      hknt.TryRandomColorPropose,
		},
		parts: parts, chunkOf: chunkOf, numChunks: numChunks,
	}
	fixedPartsOf[n] = f
	return f
}

// benchFixedParticipants measures one engine seed selection (256
// seeds) over the fixed 512 participants of an n-node instance: the
// per-seed cost contract. The time per selection should not grow with n.
// It selects bitwise, which scores every seed: a flat walk stops at the
// first seed where every participant wins, and at n = 100,000 the 512
// participants are spread so thin that an early seed does.
func benchFixedParticipants(b *testing.B, n int) {
	f := fixedPartsFixture(b, n)
	o := Options{SeedBits: 8, Bitwise: true}.withDefaults(f.st.In.G.MaxDegree())
	gen := buildPRG(o, f.numChunks, f.step.Bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := selectByEngine(f.st, &f.step, f.parts, gen, f.chunkOf, f.numChunks, o)
		if err != nil || res.NumSeeds != 1<<o.SeedBits {
			b.Fatal("bad selection")
		}
	}
}

// BenchmarkSeedSelectionLarge is the n=3000 point of the participant
// sweep.
func BenchmarkSeedSelectionLarge(b *testing.B) {
	b.Run("naive/flat", func(b *testing.B) { benchSelection(b, 3000, false, selectNaive) })
	b.Run("table/flat", func(b *testing.B) { benchSelection(b, 3000, false, selectByEngine) })
	b.Run("table/bitwise", func(b *testing.B) { benchSelection(b, 3000, true, selectByEngine) })
}

// BenchmarkSolveDeframe ablates the seed selector end-to-end on a full
// derandomized run (every schedule step goes through seed selection): the
// engine against the naive oracle, for both seed-selection strategies.
// Results are identical across the axis; only cost differs.
func BenchmarkSolveDeframe(b *testing.B) {
	g, err := graph.Named("gnp-sparse", 300, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := d1lc.TrivialPalettes(g)
	for _, cfg := range []struct {
		name    string
		sel     seedSelector
		bitwise bool
	}{
		{"table/flat", selectByEngine, false},
		{"table/bitwise", selectByEngine, true},
		{"naive/flat", selectNaive, false},
		{"naive/bitwise", selectNaive, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			o := Options{SeedBits: 5, Bitwise: cfg.bitwise, Tunables: hknt.Tunables{LowDeg: 4}}
			o = o.withDefaults(in.G.MaxDegree())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := run(in, o, maxDepth, cfg.sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
