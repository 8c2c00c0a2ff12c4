package mpc

import (
	"testing"

	"parcolor/internal/condexp"
	"parcolor/internal/rng"
)

// sharedTotals sums every machine's score per seed: the totals vector the
// shared-memory selection reads.
func sharedTotals(machines, seeds int, scoreOf SeedScorer) []int64 {
	totals := make([]int64, seeds)
	for s := range totals {
		for mid := 0; mid < machines; mid++ {
			totals[s] += scoreOf(mid, uint64(s))
		}
	}
	return totals
}

func TestDistributedSelectSeedMatchesShared(t *testing.T) {
	// Each machine hosts synthetic "nodes" whose failure indicator depends
	// on (machine, seed); the distributed argmin must equal the
	// shared-memory conditional-expectations argmin over total score.
	const machines, seeds = 9, 64
	c, err := NewCluster(Config{Machines: machines, LocalSpace: 256, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := func(mid int, seed uint64) int64 {
		return int64(rng.Hash3(7, uint64(mid), seed) % 5)
	}
	best, bestScore, rounds, err := DistributedSelectSeed(c, seeds, scoreOf)
	if err != nil {
		t.Fatal(err)
	}
	ref := condexp.SelectTotals(sharedTotals(machines, seeds, scoreOf))
	if best != ref.Seed || bestScore != ref.Score {
		t.Fatalf("distributed (%d,%d) vs shared (%d,%d)", best, bestScore, ref.Seed, ref.Score)
	}
	if rounds <= 0 {
		t.Fatal("no rounds accounted")
	}
	if c.Metrics.Violations != 0 {
		t.Fatal("space violations during seed selection")
	}
}

func TestDistributedSelectSeedBatching(t *testing.T) {
	// Seed space larger than s/2 forces multiple batches; result must be
	// unchanged and space still respected.
	const machines, seeds = 5, 200
	c, _ := NewCluster(Config{Machines: machines, LocalSpace: 64, Strict: true})
	scoreOf := func(mid int, seed uint64) int64 {
		// Unique global minimum at seed 137.
		if seed == 137 {
			return 0
		}
		return int64(1 + (seed+uint64(mid))%3)
	}
	best, _, rounds, err := DistributedSelectSeed(c, seeds, scoreOf)
	if err != nil {
		t.Fatal(err)
	}
	if best != 137 {
		t.Fatalf("best=%d want 137", best)
	}
	if rounds < 2 {
		t.Fatalf("batched selection should take multiple rounds, got %d", rounds)
	}
	if c.Metrics.Violations != 0 {
		t.Fatal("space violations")
	}
}

func TestDistributedSelectSeedTieBreak(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 3, LocalSpace: 128, Strict: true})
	best, score, _, err := DistributedSelectSeed(c, 16, func(int, uint64) int64 { return 7 })
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 || score != 21 {
		t.Fatalf("tie-break: seed=%d score=%d", best, score)
	}
}

func TestDistributedSelectSeedEmpty(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, LocalSpace: 64, Strict: true})
	if _, _, _, err := DistributedSelectSeed(c, 0, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestDistributedSelectSeedRowsMatchesScalar(t *testing.T) {
	// Across cluster shapes and seed-space sizes (single batch, many
	// batches, single machine, deep trees), the row converge-cast must
	// pick the identical (seed, score), produce a valid certificate, and
	// never exceed the scalar protocol's simulated rounds.
	cases := []struct {
		machines, space, seeds int
	}{
		{1, 64, 10},
		{3, 128, 16},
		{5, 64, 200},  // many batches
		{9, 256, 64},  // the scalar test's shape
		{17, 32, 100}, // tiny space: deep tree, many batches
		{40, 4096, 256},
	}
	for _, tc := range cases {
		scoreOf := func(mid int, seed uint64) int64 {
			return int64(rng.Hash3(uint64(tc.machines), uint64(mid), seed) % 7)
		}
		cS, err := NewCluster(Config{Machines: tc.machines, LocalSpace: tc.space, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		bestS, scoreS, roundsS, err := DistributedSelectSeed(cS, tc.seeds, scoreOf)
		if err != nil {
			t.Fatalf("m=%d s=%d: scalar: %v", tc.machines, tc.space, err)
		}
		cR, _ := NewCluster(Config{Machines: tc.machines, LocalSpace: tc.space, Strict: true})
		res, roundsR, err := DistributedSelectSeedRows(cR, tc.seeds, RowsFromScalar(scoreOf))
		if err != nil {
			t.Fatalf("m=%d s=%d: rows: %v", tc.machines, tc.space, err)
		}
		if res.Seed != bestS || res.Score != scoreS {
			t.Fatalf("m=%d s=%d seeds=%d: rows (%d,%d) vs scalar (%d,%d)",
				tc.machines, tc.space, tc.seeds, res.Seed, res.Score, bestS, scoreS)
		}
		if !res.Guarantee() {
			t.Fatalf("m=%d s=%d: certificate violated", tc.machines, tc.space)
		}
		// The shared-memory table path is the common reference.
		ref := condexp.SelectTotals(sharedTotals(tc.machines, tc.seeds, scoreOf))
		if res.Seed != ref.Seed || res.Score != ref.Score || res.SumScores != ref.SumScores {
			t.Fatalf("m=%d s=%d: rows result %+v differs from shared %+v",
				tc.machines, tc.space, res, ref)
		}
		if roundsR > roundsS {
			t.Fatalf("m=%d s=%d seeds=%d: rows protocol used %d rounds, scalar %d — regression",
				tc.machines, tc.space, tc.seeds, roundsR, roundsS)
		}
		// Covers the aggregation traffic (send/recv/stored records), which
		// the engine meters; the resident host-side row is exempt from the
		// space model by the documented simulation convention (the paper's
		// regime has 2^d ≤ s, where a row fits in local space).
		if cR.Metrics.Violations != 0 {
			t.Fatalf("m=%d s=%d: space violations in row protocol", tc.machines, tc.space)
		}
	}
}

func TestDistributedSelectSeedRowsCutsRoundsOnMultiBatch(t *testing.T) {
	// With B batches over an L-level tree the scalar protocol pays B·L
	// aggregation-phase rounds and the pipeline pays L+B−1: strictly fewer
	// whenever B ≥ 2 and L ≥ 2.
	const machines, space, seeds = 9, 64, 200 // batch = 15 → B = 14, L ≥ 2
	scoreOf := func(mid int, seed uint64) int64 {
		return int64((seed + uint64(mid)) % 5)
	}
	cS, _ := NewCluster(Config{Machines: machines, LocalSpace: space, Strict: true})
	_, _, roundsS, err := DistributedSelectSeed(cS, seeds, scoreOf)
	if err != nil {
		t.Fatal(err)
	}
	cR, _ := NewCluster(Config{Machines: machines, LocalSpace: space, Strict: true})
	_, roundsR, err := DistributedSelectSeedRows(cR, seeds, RowsFromScalar(scoreOf))
	if err != nil {
		t.Fatal(err)
	}
	if roundsR >= roundsS {
		t.Fatalf("pipelined converge-cast should cut rounds: rows=%d scalar=%d", roundsR, roundsS)
	}
}

func TestDistributedSelectSeedRowsEmpty(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 2, LocalSpace: 64, Strict: true})
	if _, _, err := DistributedSelectSeedRows(c, 0, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestLevelOfPos(t *testing.T) {
	// Heap positions: level 0 = {0}, level 1 = {1..k}, level 2 = {k+1..k+k²}, …
	for _, k := range []int{2, 3, 4, 7} {
		if levelOfPos(0, k) != 0 {
			t.Fatalf("k=%d: root level != 0", k)
		}
		for p := 1; p <= k; p++ {
			if levelOfPos(p, k) != 1 {
				t.Fatalf("k=%d: pos %d level != 1", k, p)
			}
		}
		if levelOfPos(k+1, k) != 2 || levelOfPos(k+k*k, k) != 2 {
			t.Fatalf("k=%d: level-2 boundaries wrong", k)
		}
		// Consistency with the parent map: level(parent) = level(p) − 1.
		for p := 1; p < 200; p++ {
			if levelOfPos((p-1)/k, k) != levelOfPos(p, k)-1 {
				t.Fatalf("k=%d: parent of %d not one level up", k, p)
			}
		}
	}
}

func TestDistributedSelectSeedSingleMachine(t *testing.T) {
	c, _ := NewCluster(Config{Machines: 1, LocalSpace: 64, Strict: true})
	best, score, _, err := DistributedSelectSeed(c, 10, func(_ int, s uint64) int64 { return int64(9 - s%10) })
	if err != nil {
		t.Fatal(err)
	}
	if best != 9 || score != 0 {
		t.Fatalf("seed=%d score=%d", best, score)
	}
}
