package condexp

import (
	"context"
	"testing"

	"parcolor/internal/par"
)

// TestBuildCancelled checks that a cancelled runner aborts the build with
// the context's error and returns no table.
func TestBuildCancelled(t *testing.T) {
	fill, _ := randomObjective(3, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tbl, err := BuildTable(par.NewRunner(2).WithContext(ctx), 1<<8, 4, fill)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tbl != nil {
		t.Fatal("cancelled build returned a table")
	}
}

// TestBuildCancelledMidway cancels from inside the fill and checks the
// walk stops early: well under the full seed space gets evaluated after
// the cancellation point on every worker.
func TestBuildCancelledMidway(t *testing.T) {
	const numSeeds = 1 << 12
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0 // single worker, no race
	fill := func(seed uint64, row []int64) {
		calls++
		if calls == 10 {
			cancel()
		}
		row[0] = int64(seed)
	}
	_, err := BuildTable(par.NewRunner(1).WithContext(ctx), numSeeds, 1, fill)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls >= numSeeds/2 {
		t.Fatalf("cancellation not prompt: %d of %d seeds filled", calls, numSeeds)
	}
}

// TestTableCacheReusesStorageAndStaysExact checks that pooled rebuilds
// (same and smaller shapes) produce tables identical to fresh builds, and
// that the pool actually recycles the backing arrays.
func TestTableCacheReusesStorageAndStaysExact(t *testing.T) {
	fill, score := randomObjective(11, 5)
	first, err := BuildTable(nil, 1<<6, 5, fill)
	if err != nil {
		t.Fatal(err)
	}
	firstPtr := &first.Contrib[0]
	flat := first.SelectSeed()
	first.Release()

	// Same shape again: storage must be recycled, results identical. The
	// race detector makes sync.Pool drop items at random, so recycling is
	// asserted over several attempts rather than on the first.
	second, err := BuildTable(nil, 1<<6, 5, fill)
	if err != nil {
		t.Fatal(err)
	}
	recycled := &second.Contrib[0] == firstPtr
	for tries := 0; !recycled && tries < 50; tries++ {
		prev := &second.Contrib[0]
		second.Release()
		if second, err = BuildTable(nil, 1<<6, 5, fill); err != nil {
			t.Fatal(err)
		}
		recycled = &second.Contrib[0] == prev
	}
	if !recycled {
		t.Error("cache never recycled Contrib storage for an equal shape")
	}
	if got := second.SelectSeed(); !sameSelection(got, flat) {
		t.Fatalf("cached rebuild selection differs: %+v vs %+v", got, flat)
	}
	naive := SelectSeed(nil, 1<<6, score)
	if got := second.SelectSeed(); !sameSelection(got, naive) {
		t.Fatalf("cached selection differs from naive: %+v vs %+v", got, naive)
	}
	second.Release()

	// Smaller shape out of the same pool: stale cells beyond the new
	// shape must not leak into totals.
	smallFill, smallScore := randomObjective(12, 2)
	small, err := BuildTable(nil, 1<<4, 2, smallFill)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := small.SelectSeed(), SelectSeed(nil, 1<<4, smallScore); !sameSelection(got, want) {
		t.Fatalf("small cached build differs from naive: %+v vs %+v", got, want)
	}
	small.Release()
}

// TestWarmTableBuildAllocationFree is the in-place-fill acceptance
// criterion: once the pool is warm, a single-worker BuildTable (fill straight
// into the pooled seed-major grid, converge-cast with no partial vectors)
// plus Release performs zero allocations. Single worker because a wider
// runner's goroutine fan-out allocates by construction; skipped under
// -race, where sync.Pool sheds entries at random.
func TestWarmTableBuildAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	r := par.NewRunner(1)
	fill, _ := randomObjective(21, 7)
	warm, err := BuildTable(r, 1<<6, 7, fill)
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	allocs := testing.AllocsPerRun(10, func() {
		tbl, err := BuildTable(r, 1<<6, 7, fill)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm table build allocates %.1f times per run, want 0", allocs)
	}
}
