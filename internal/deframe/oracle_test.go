package deframe

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
)

// TestStepEngineSeedMajorMatchesChunkMajorOracle pins the step engine to
// the naive oracle seed by seed: for every seed, the engine's pooled,
// lazily expanded score equals naiveScorer's fresh eager one, and both
// selection strategies equal condexp.SelectNaive over that scorer —
// across workers 1, 4 and the process default (run under -race in CI), on
// both objectives (−wins, SSP == nil, and SSP failures). The name is kept
// from the chunk-major table comparison this check replaced.
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
		{"win-mask", nil}, // SSP == nil: −wins
		{"ssp", ssp},      // SSP failures
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
			naive := naiveScorer(st, &step, parts, gen, chunkOf, num)

			eng := newStepEngine(st, &step, parts, gen, chunkOf, num)
			for seed := uint64(0); seed < 1<<o.SeedBits; seed++ {
				if got, want := eng.score(seed), naive(seed); got != want {
					t.Fatalf("seed %d: engine score %d, naive %d", seed, got, want)
				}
			}
			for _, w := range []int{1, 4, 0} {
				for _, bitwise := range []bool{false, true} {
					o.Par, o.Bitwise = par.NewRunner(w), bitwise
					got, _, err := newStepEngine(st, &step, parts, gen, chunkOf, num).selectSeedTable(o)
					if err != nil {
						t.Fatal(err)
					}
					want, err := condexp.SelectNaive(o.Par, o.SeedBits, bitwise, naive)
					if err != nil {
						t.Fatal(err)
					}
					if got.Seed != want.Seed || got.Score != want.Score || got.SumScores != want.SumScores {
						t.Fatalf("w=%d bitwise=%v: engine %+v, naive %+v", w, bitwise, got, want)
					}
				}
			}
		})
	}
}
