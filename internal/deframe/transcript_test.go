package deframe

import (
	"fmt"
	"math/bits"
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// replaySeeds is a seedSelector that walks no seed space: it takes the
// next seed of a transcript, one per step with participants in the order
// the run meets them, and proposes it once with a fresh eager expansion
// and no Scratch. The Result reports that one evaluation.
func replaySeeds(t *testing.T, transcript []uint64, next *int) seedSelector {
	return func(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error) {
		if *next == len(transcript) {
			t.Fatalf("step %s: transcript of %d seeds exhausted", step.Name, len(transcript))
		}
		seed := transcript[*next]
		*next++
		src, err := prg.NewChunkedSource(gen, seed, chunkOf, numChunks, step.Bits)
		if err != nil {
			t.Fatal(err)
		}
		prop := step.Propose(st, parts, src, nil)
		return condexp.Result{Seed: seed, Score: step.Score(st, parts, prop), NumSeeds: 1, Evals: 1}, prop, nil
	}
}

// TestSeedTranscriptReplaysRun: a solve is a function of its instance and
// the seeds its selections chose. Replaying Run's SeedChosen, one Propose
// per step and no walk, must reproduce its coloring bit for bit and every
// step's score, colored and deferred counts, flat and bitwise, at workers
// 1, 4 and the process default. Propose being pure in (state, seed) is
// what lets the engine commit a re-derived proposal and stop its walk at
// the floor; this checks it on whole runs.
func TestSeedTranscriptReplaysRun(t *testing.T) {
	replayed := 0 // cliques is small enough for the greedy base case
	for _, tc := range tableScoringCases() {
		for _, bitwise := range []bool{false, true} {
			for _, w := range []int{1, 4, 0} {
				t.Run(fmt.Sprintf("%s/bitwise=%v/w=%d", tc.name, bitwise, w), func(t *testing.T) {
					o := smallOpts()
					o.Bitwise, o.Par = bitwise, par.NewRunner(w)
					o = o.withDefaults(tc.in.G.MaxDegree())
					col, rep, err := run(tc.in, o, maxDepth, selectByEngine)
					if err != nil {
						t.Fatal(err)
					}
					var transcript []uint64
					steps := collectSteps(rep)
					for _, s := range steps {
						if s.Participants > 0 {
							transcript = append(transcript, s.SeedChosen)
						}
					}
					replayed += len(transcript)
					next := 0
					colR, repR, err := run(tc.in, o, maxDepth, replaySeeds(t, transcript, &next))
					if err != nil {
						t.Fatal(err)
					}
					if next != len(transcript) {
						t.Fatalf("replay used %d of %d transcript seeds", next, len(transcript))
					}
					for v := range col.Colors {
						if col.Colors[v] != colR.Colors[v] {
							t.Fatalf("colorings diverge at node %d: %d vs %d", v, col.Colors[v], colR.Colors[v])
						}
					}
					stepsR := collectSteps(repR)
					if len(stepsR) != len(steps) {
						t.Fatalf("step counts diverge: %d vs %d", len(steps), len(stepsR))
					}
					for i, a := range steps {
						b := stepsR[i]
						if a.SeedChosen != b.SeedChosen || a.Score != b.Score || a.Colored != b.Colored || a.Deferred != b.Deferred {
							t.Fatalf("step %d (%s) diverges:\nrun    %+v\nreplay %+v", i, a.Name, a, b)
						}
					}
					if bitwise || w != 1 {
						return
					}
					maxColor := int32(0)
					for _, c := range col.Colors {
						maxColor = max(maxColor, c)
					}
					t.Logf("transcript %d seeds × %d bits = %d bits; coloring %d nodes × %d bits = %d bits",
						len(transcript), o.SeedBits, len(transcript)*o.SeedBits,
						len(col.Colors), bits.Len32(uint32(maxColor)), len(col.Colors)*bits.Len32(uint32(maxColor)))
				})
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no run had a step with participants")
	}
}
