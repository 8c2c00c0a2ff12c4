package condexp

import (
	"context"
	"testing"

	"parcolor/internal/par"
)

// TestSelectCancelled checks that a cancelled runner aborts the selection
// with the context's error.
func TestSelectCancelled(t *testing.T) {
	score := randomObjective(3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bitwise := range []bool{false, true} {
		res, err := Select(par.NewRunner(2).WithContext(ctx), 8, bitwise, noFloor, score)
		if err != context.Canceled {
			t.Fatalf("bitwise=%v: err = %v, want context.Canceled", bitwise, err)
		}
		if res != (Result{}) {
			t.Fatalf("bitwise=%v: cancelled selection returned %+v", bitwise, res)
		}
	}
}

// TestSelectCancelledMidway cancels from inside the scorer and checks the
// walk stops early: well under the full seed space gets scored after the
// cancellation point.
func TestSelectCancelledMidway(t *testing.T) {
	const seedBits = 12
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0 // single worker, no race
	score := func(seed uint64) int64 {
		calls++
		if calls == 10 {
			cancel()
		}
		return int64(seed)
	}
	_, err := Select(par.NewRunner(1).WithContext(ctx), seedBits, false, noFloor, score)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls >= 1<<seedBits/2 {
		t.Fatalf("cancellation not prompt: %d of %d seeds scored", calls, 1<<seedBits)
	}
}

// TestSelectReusesPooledTotalsAndStaysExact checks that selections over
// pooled totals — the same seed space again, then a smaller one whose
// vector is a prefix of a larger pooled one — equal the naive oracle, and
// that the pool actually recycles the totals vector.
func TestSelectReusesPooledTotalsAndStaysExact(t *testing.T) {
	for _, tc := range []struct {
		seedBits int
		salt     uint64
	}{{6, 11}, {6, 12}, {4, 13}, {7, 14}, {3, 15}} {
		score := randomObjective(tc.salt, 5)
		if got, want := mustSelect(nil, tc.seedBits, false, score), SelectSeed(nil, 1<<tc.seedBits, score); !sameSelection(got, want) {
			t.Fatalf("d=%d: pooled flat selection differs from naive: %+v vs %+v", tc.seedBits, got, want)
		}
		if got, want := mustSelect(nil, tc.seedBits, true, score), SelectSeedBitwise(nil, tc.seedBits, score); !sameSelection(got, want) {
			t.Fatalf("d=%d: pooled bitwise selection differs from naive: %+v vs %+v", tc.seedBits, got, want)
		}
	}

	// The race detector makes sync.Pool drop items at random, so recycling
	// is asserted over several attempts rather than on the first.
	recycled := false
	for tries := 0; !recycled && tries < 50; tries++ {
		mustSelect(nil, 6, false, randomObjective(16, 2))
		sc := selectPool.Get().(*selectScratch)
		recycled = cap(sc.totals) >= 1<<6
		selectPool.Put(sc)
	}
	if !recycled {
		t.Error("pool never recycled a totals vector")
	}
}

// TestWarmSelectAllocationFree: once the pool is warm, a
// single-worker Select — scoring every seed and selecting, flat or
// bitwise — performs zero allocations. Single worker because a wider
// runner's goroutine fan-out allocates by construction; skipped under
// -race, where sync.Pool sheds entries at random.
func TestWarmSelectAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	r := par.NewRunner(1)
	score := randomObjective(21, 7)
	for _, bitwise := range []bool{false, true} {
		mustSelect(r, 6, bitwise, score)
		allocs := testing.AllocsPerRun(10, func() {
			mustSelect(r, 6, bitwise, score)
		})
		if allocs != 0 {
			t.Fatalf("bitwise=%v: warm selection allocates %.1f times per run, want 0", bitwise, allocs)
		}
	}
}
