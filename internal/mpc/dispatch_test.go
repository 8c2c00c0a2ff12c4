package mpc

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/kernel"
	"parcolor/internal/rng"
)

// TestDistributedSelectSeedRowsBitIdenticalAcrossDispatchPaths requires
// the row converge-cast — whose segment folds run through the dispatched
// kernel.Add at every machine, the root included — to pick the
// identical (seed, score, sum) under both kernel dispatch paths, across
// shapes that exercise the batched and deep-tree code. Skips when the
// binary has no AVX2 path.
func TestDistributedSelectSeedRowsBitIdenticalAcrossDispatchPaths(t *testing.T) {
	cases := []struct {
		machines, space, seeds int
	}{
		{3, 128, 16},
		{9, 256, 64},
		{17, 32, 100}, // deep tree, many batches
	}
	for _, tc := range cases {
		scoreOf := func(mid int, seed uint64) int64 {
			return int64(rng.Hash3(uint64(tc.machines), uint64(mid), seed) % 7)
		}
		run := func() (condexp.Result, int) {
			c, err := NewCluster(Config{Machines: tc.machines, LocalSpace: tc.space, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			res, rounds, err := DistributedSelectSeedRows(c, tc.seeds, RowsFromScalar(scoreOf))
			if err != nil {
				t.Fatalf("m=%d s=%d: %v", tc.machines, tc.space, err)
			}
			return res, rounds
		}
		prev := kernel.SetAVX2ForTest(false)
		gen, roundsG := run()
		if kernel.SetAVX2ForTest(true); !kernel.UsingAVX2() {
			kernel.SetAVX2ForTest(prev)
			t.Skip("AVX2 path not present in this binary")
		}
		avx, roundsA := run()
		kernel.SetAVX2ForTest(prev)
		if gen != avx {
			t.Fatalf("m=%d s=%d seeds=%d: results diverge: %+v (generic) vs %+v (avx2)",
				tc.machines, tc.space, tc.seeds, gen, avx)
		}
		if roundsG != roundsA {
			t.Fatalf("m=%d s=%d: round counts diverge: %d vs %d",
				tc.machines, tc.space, roundsG, roundsA)
		}
	}
}
