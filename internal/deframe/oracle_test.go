package deframe

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
)

// TestStepEngineSeedMajorMatchesChunkMajorOracle pins the step engine's
// seed-major table bit-identical to the retained chunk-major oracle: the
// engine's own fill, scattered into the retired layout by
// condexp.BuildChunkMajorOracle, must transpose cell-for-cell onto the
// table the engine builds in place — with totals in seed order and both
// selection strategies equal — across workers 1, 4 and the process
// default (run under -race in CI), on both fill paths (the win-mask
// popcount path, SSP == nil, and the per-participant SSP path).
func TestStepEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(110, 5))
	n := in.G.N()
	ssp := func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
		return prop.Color[v] != d1lc.Uncolored
	}
	for _, tc := range []struct {
		name string
		ssp  func(*hknt.State, []int32, hknt.Proposal, int32) bool
	}{
		{"win-mask", nil}, // SSP == nil: popcount fill path
		{"ssp", ssp},      // per-participant ScoreChunk fill path
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := hknt.NewState(in)
			step := hknt.Step{
				Name:         "trc",
				Tau:          2,
				Bits:         hknt.TryRandomColorBits(n),
				Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
				Propose:      hknt.TryRandomColorPropose,
				SSP:          tc.ssp,
			}
			o := Options{SeedBits: 6}.withDefaults(in.G.MaxDegree())
			chunkOf, num, _ := chunkAssignment(nil, in.G, 4, 1_000_000)
			parts := step.Participants(st)
			gen := buildPRG(o, num, step.Bits)
			numSeeds := 1 << o.SeedBits

			oracleEng := newStepEngine(st, &step, parts, gen, chunkOf, num)
			oc, ot := condexp.BuildChunkMajorOracle(numSeeds, oracleEng.nChunks, oracleEng.fill)

			for _, w := range []int{1, 4, 0} {
				eng := newStepEngine(st, &step, parts, gen, chunkOf, num)
				tbl, err := condexp.BuildTable(par.NewRunner(w), numSeeds, eng.nChunks, eng.fill)
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.VerifyAgainstChunkMajorOracle(oc, ot, o.SeedBits); err != nil {
					t.Fatalf("w=%d: %v", w, err)
				}
			}
		})
	}
}
