package rng_test

import (
	"fmt"

	"parcolor/internal/rng"
)

// ExampleDivisor shows the engine-author contract the seed-selection
// engines rely on: the divisor (a participant's palette size) is fixed
// for a whole round, so the 128-bit reciprocal is precomputed once per
// participant at engine construction, and every per-(seed, participant)
// candidate reduction inside the seed walk is a multiply chain instead of
// a hardware division. Mod is bit-identical to %, which is what keeps the
// engine's chosen seed equal to the naive oracle's.
func ExampleDivisor() {
	palette := []int32{7, 11, 13, 42, 99}
	// Once per round: |palette| is seed-invariant.
	div := rng.NewDivisor(uint64(len(palette)))
	// Per seed: reduce the participant's fresh hash by the palette size.
	for seed := uint64(0); seed < 3; seed++ {
		h := rng.Hash3(seed, 17 /* node id */, 4 /* round */)
		idx := div.Mod(h)
		if idx != h%uint64(len(palette)) {
			panic("Mod must equal % exactly")
		}
		fmt.Println(palette[idx])
	}
	// Output:
	// 99
	// 11
	// 7
}
