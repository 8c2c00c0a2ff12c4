package condexp_test

import (
	"fmt"

	"parcolor/internal/condexp"
)

// ExampleBestSeen shows the engine-author contract shared by the deframe,
// mis and lowdeg engines: while Select walks the seed space
// (concurrently, in any order), every score call offers its (seed, score)
// to the BestSeen slot and materializes its proposal inside keep — the
// only moment the per-worker scratch's contents are known to be the
// current minimum. After flat selection the winning seed always Matches,
// so the cached clone is committed without re-proposing; bitwise
// selection may pick a different seed, in which case Matches is false and
// the engine re-proposes once.
func ExampleBestSeen() {
	scores := map[uint64]int64{0: 5, 1: 3, 2: 3, 3: 9}
	var best condexp.BestSeen
	var cached string
	for seed := uint64(0); seed < 4; seed++ {
		score := scores[seed]
		best.Offer(seed, score, func() {
			// Clone out of worker scratch while the lock pins the slot.
			cached = fmt.Sprintf("proposal-of-seed-%d", seed)
		})
	}
	// (score, seed)-lexicographic minimum: seed 1 beats the equal-score
	// seed 2, matching SelectSeed's smallest-seed tie-break.
	fmt.Println(best.Matches(1), best.Matches(2), cached)
	// Output:
	// true false proposal-of-seed-1
}
