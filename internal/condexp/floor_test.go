package condexp

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// floorWorkers are the worker counts the floor tests run Select at: the
// inline loop, and block claiming with as many, fewer and more blocks than
// a worker's share of small seed spaces.
var floorWorkers = []int{1, 2, 3, 7}

// plantedScores returns a score vector over 2^d seeds whose values are at
// least floor, with floor itself planted by mode: 0 nowhere, 1 at one
// random seed, 2 at three random seeds, 3 at seed 0, 4 at the last seed.
func plantedScores(salt uint64, d, mode int) (scores []int64, floor int64) {
	n := 1 << d
	floor = -int64(salt % 7 * 10)
	scores = make([]int64, n)
	for s := range scores {
		scores[s] = floor + 1 + int64(rng.Hash2(salt, uint64(s))%50)
	}
	plant := func(k uint64) { scores[rng.Hash2(salt^0xF100, k)%uint64(n)] = floor }
	switch mode {
	case 1:
		plant(0)
	case 2:
		plant(0)
		plant(1)
		plant(2)
	case 3:
		scores[0] = floor
	case 4:
		scores[n-1] = floor
	}
	return scores, floor
}

// checkFloorSelection runs Select over scores with the given floor, flat
// and bitwise, at every floorWorkers count, and fails unless
//   - Seed and Score equal SelectTotals (flat) or SelectTotalsBitwise
//     (bitwise) over the whole vector;
//   - a flat walk that meets the floor first at seed f reports AtFloor and
//     accounts for exactly seeds 0..f, any other walk for every seed;
//   - the Result is the same at every worker count;
//   - at one worker, the scorer never sees a seed past f.
func checkFloorSelection(t *testing.T, scores []int64, floor int64, d int) {
	t.Helper()
	f := slices.Index(scores, floor) // -1: no seed scores the floor
	for _, bitwise := range []bool{false, true} {
		full := SelectTotals(scores)
		want := full
		if bitwise {
			full = SelectTotalsBitwise(scores, d)
			want = full
		} else if f >= 0 {
			var sum int64
			for _, v := range scores[:f+1] {
				sum += v
			}
			want = Result{Seed: uint64(f), Score: floor, SumScores: sum, NumSeeds: f + 1, Evals: f + 1, AtFloor: true}
		}
		for _, w := range floorWorkers {
			var past atomic.Int64
			got, err := Select(par.NewRunner(w), d, bitwise, floor, func(seed uint64) int64 {
				if f >= 0 && seed > uint64(f) {
					past.Add(1)
				}
				// Yield, so that workers interleave mid-block: a block of
				// bare lookups ends before the next worker starts, and a
				// race on the shared floor seed would never show.
				runtime.Gosched()
				return scores[seed]
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Seed != full.Seed || got.Score != full.Score {
				t.Fatalf("d=%d floor=%d f=%d w=%d bitwise=%v: selected (%d, %d), full enumeration (%d, %d)",
					d, floor, f, w, bitwise, got.Seed, got.Score, full.Seed, full.Score)
			}
			if got != want {
				t.Fatalf("d=%d floor=%d f=%d w=%d bitwise=%v: Result %+v, want %+v", d, floor, f, w, bitwise, got, want)
			}
			if w == 1 && !bitwise && past.Load() != 0 {
				t.Fatalf("d=%d f=%d: one worker scored %d seeds past the floor seed", d, f, past.Load())
			}
		}
	}
}

// TestSelectFloorMatchesFullEnumeration holds the floor exit to full
// enumeration on random score vectors over 2^1..2^9 seeds with the floor
// planted nowhere, at one or several random seeds, at seed 0 and at the
// last seed.
func TestSelectFloorMatchesFullEnumeration(t *testing.T) {
	hits := 0
	for salt := uint64(0); salt < 90; salt++ {
		d := 1 + int(salt%9)
		scores, floor := plantedScores(salt, d, int(salt%5))
		if slices.Contains(scores, floor) {
			hits++
		}
		checkFloorSelection(t, scores, floor, d)
	}
	if hits < 60 {
		t.Fatalf("only %d of 90 vectors reach their floor", hits)
	}
}

// TestSelectFloorCancelledMidway cancels from inside the scorer before any
// seed reaches the floor and checks that every walk, flat or bitwise, at
// any worker count, returns the context's error and no Result.
func TestSelectFloorCancelledMidway(t *testing.T) {
	const seedBits = 10
	scores, floor := plantedScores(5, seedBits, 0)
	scores[900] = floor
	for _, bitwise := range []bool{false, true} {
		for _, w := range floorWorkers {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			res, err := Select(par.NewRunner(w).WithContext(ctx), seedBits, bitwise, floor, func(seed uint64) int64 {
				if calls.Add(1) == 40 {
					cancel()
				}
				return scores[seed]
			})
			cancel()
			if err != context.Canceled || res != (Result{}) {
				t.Fatalf("w=%d bitwise=%v: got %+v, %v; want no Result and context.Canceled", w, bitwise, res, err)
			}
			if n := calls.Load(); n >= 1<<seedBits/2 {
				t.Fatalf("w=%d bitwise=%v: cancellation not prompt, %d seeds scored", w, bitwise, n)
			}
		}
	}
}

// TestSelectPanicsBelowFloor: a flat walk that meets a score below the
// caller's floor panics, because stopping at the floor would then not
// commit the argmin.
func TestSelectPanicsBelowFloor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Select(par.NewRunner(1), 4, false, 0, func(seed uint64) int64 { return int64(seed) - 3 })
}

// FuzzSelectFloor holds the floor exit to full enumeration on arbitrary
// score vectors: bits picks 2^1..2^10 seeds, and seed s scores floor +
// (raw[s mod len(raw)] XOR s/len(raw)) mod 64, so every zero residue
// plants the floor.
func FuzzSelectFloor(f *testing.F) {
	f.Add(uint8(6), int16(0), []byte{3, 9, 0, 4})
	f.Add(uint8(9), int16(-300), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint8(3), int16(-2), []byte{0})
	f.Add(uint8(10), int16(7), []byte{})
	f.Add(uint8(8), int16(-474), []byte{64, 65, 66, 67, 68, 69, 70, 71})
	f.Fuzz(func(t *testing.T, bits uint8, floor int16, raw []byte) {
		d := 1 + int(bits%10)
		scores := make([]int64, 1<<d)
		for s := range scores {
			var b byte = 1
			if len(raw) > 0 {
				b = raw[s%len(raw)] ^ byte(s/len(raw))
			}
			scores[s] = int64(floor) + int64(b%64)
		}
		checkFloorSelection(t, scores, int64(floor), d)
	})
}
