package mpc

import (
	"testing"

	"parcolor/internal/rng"
)

// FuzzDistributedSelectSeedRowsMatchesScalar drives the row protocol —
// segment folds at every machine, the root included, and selection over
// the root's summed row — against the scalar oracle over arbitrary
// cluster shapes, seed-space sizes and objectives, inside the L+B−1
// pipelined converge-cast. Seeds cover single machine, deep trees, and
// multi-batch pipelines.
func FuzzDistributedSelectSeedRowsMatchesScalar(f *testing.F) {
	f.Add(uint8(1), uint8(64), uint8(10), uint64(1))
	f.Add(uint8(9), uint8(64), uint8(200), uint64(7))
	f.Add(uint8(17), uint8(32), uint8(100), uint64(3))
	f.Add(uint8(40), uint8(255), uint8(255), uint64(9))
	f.Fuzz(func(t *testing.T, m8, sp8, sd8 uint8, salt uint64) {
		machines := int(m8)%48 + 1
		space := int(sp8)%500 + 8
		seeds := int(sd8)%300 + 1
		scoreOf := func(mid int, seed uint64) int64 {
			return int64(rng.Hash3(salt, uint64(mid), seed)%9) - 4
		}
		cS, err := NewCluster(Config{Machines: machines, LocalSpace: space, Strict: true})
		if err != nil {
			t.Skip("invalid cluster config")
		}
		bestS, scoreS, _, err := DistributedSelectSeed(cS, seeds, scoreOf)
		if err != nil {
			t.Fatalf("scalar: %v", err)
		}
		cR, _ := NewCluster(Config{Machines: machines, LocalSpace: space, Strict: true})
		res, _, err := DistributedSelectSeedRows(cR, seeds, RowsFromScalar(scoreOf))
		if err != nil {
			t.Fatalf("rows: %v", err)
		}
		if res.Seed != bestS || res.Score != scoreS {
			t.Fatalf("m=%d space=%d seeds=%d: rows (%d,%d) vs scalar (%d,%d)",
				machines, space, seeds, res.Seed, res.Score, bestS, scoreS)
		}
		var wantSum int64
		for s := 0; s < seeds; s++ {
			for mid := 0; mid < machines; mid++ {
				wantSum += scoreOf(mid, uint64(s))
			}
		}
		if res.SumScores != wantSum {
			t.Fatalf("m=%d space=%d seeds=%d: SumScores %d, want %d (transpose or totals broke attribution)",
				machines, space, seeds, res.SumScores, wantSum)
		}
	})
}
