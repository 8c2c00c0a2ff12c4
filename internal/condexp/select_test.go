package condexp

import (
	"math"
	"sync/atomic"
	"testing"

	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// randomObjective builds a deterministic pseudo-random objective: the sum
// of terms per-machine contributions Hash3(salt, c, seed) % 64, the shape
// of Lemma 10's per-seed converge-cast.
func randomObjective(salt uint64, terms int) Scorer {
	return func(seed uint64) int64 {
		var sum int64
		for c := 0; c < terms; c++ {
			sum += int64(rng.Hash3(salt, uint64(c), seed) % 64)
		}
		return sum
	}
}

func sameSelection(a, b Result) bool {
	return a.Seed == b.Seed && a.Score == b.Score &&
		a.SumScores == b.SumScores && a.NumSeeds == b.NumSeeds
}

// noFloor is a floor no test objective reaches: Select then scores every
// seed, as full enumeration does.
const noFloor = math.MinInt64

// mustSelect is the tests' shorthand for an uncancellable selection with
// no floor; the error path only fires on cancellation, tested separately.
func mustSelect(r *par.Runner, seedBits int, bitwise bool, score Scorer) Result {
	res, err := Select(r, seedBits, bitwise, noFloor, score)
	if err != nil {
		panic(err)
	}
	return res
}

func TestTableSelectSeedMatchesNaive(t *testing.T) {
	for salt := uint64(0); salt < 40; salt++ {
		d := 1 + int(salt%8)
		score := randomObjective(salt, 1+int(salt%7))
		naive := SelectSeed(nil, 1<<d, score)
		got := mustSelect(nil, d, false, score)
		if !sameSelection(naive, got) {
			t.Fatalf("salt=%d: flat selection differs:\nnaive %+v\ntotals %+v", salt, naive, got)
		}
		if !got.Guarantee() {
			t.Fatalf("salt=%d: result violates certificate", salt)
		}
	}
}

func TestTableSelectSeedBitwiseMatchesNaive(t *testing.T) {
	for salt := uint64(0); salt < 40; salt++ {
		d := 1 + int(salt%8)
		score := randomObjective(salt^0xB17, 1+int((salt*3)%6))
		naive := SelectSeedBitwise(nil, d, score)
		got := mustSelect(nil, d, true, score)
		if !sameSelection(naive, got) {
			t.Fatalf("salt=%d d=%d: bitwise selection differs:\nnaive %+v\ntotals %+v", salt, d, naive, got)
		}
		if !got.Guarantee() {
			t.Fatalf("salt=%d: bitwise result violates certificate", salt)
		}
	}
}

func TestTableBitwiseEvalBudget(t *testing.T) {
	// Naive bitwise spends 2^(d+1)−2 scorer calls; Select scores every
	// seed exactly once and reports those 2^d evaluations.
	for _, d := range []int{2, 4, 6, 8, 10} {
		numSeeds := 1 << d
		score := randomObjective(uint64(d)*31, 3)
		var calls atomic.Int64
		got := mustSelect(nil, d, true, func(seed uint64) int64 {
			calls.Add(1)
			return score(seed)
		})
		if got.Evals != numSeeds || calls.Load() != int64(numSeeds) {
			t.Fatalf("d=%d: Select reports %d evals and made %d calls, want %d",
				d, got.Evals, calls.Load(), numSeeds)
		}
		naive := SelectSeedBitwise(nil, d, score)
		if want := 2*numSeeds - 2; naive.Evals != want {
			t.Fatalf("d=%d: naive bitwise evals %d, want %d", d, naive.Evals, want)
		}
		if naive.Evals <= got.Evals {
			t.Fatalf("d=%d: Select (%d evals) not cheaper than naive (%d)", d, got.Evals, naive.Evals)
		}
	}
}

func TestTableDeterministicAcrossWorkerCounts(t *testing.T) {
	const d = 6
	score := randomObjective(7, 4)
	refFlat, refBw := mustSelect(nil, d, false, score), mustSelect(nil, d, true, score)
	for _, w := range []int{1, 2, 3, 8} {
		r := par.NewRunner(w)
		flat, bw := mustSelect(r, d, false, score), mustSelect(r, d, true, score)
		if !sameSelection(flat, refFlat) || !sameSelection(bw, refBw) {
			t.Fatalf("workers=%d: selection differs", w)
		}
	}
}

func TestTableBitwisePanicsOnMismatchedBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SelectTotalsBitwise(make([]int64, 8), 4)
}

// BenchmarkSeedSelection compares the naive scorer-driven paths against
// Select on a synthetic objective of 32 per-machine terms per seed,
// mirroring the deframe hot-path shape (32 machines × 2^d seeds).
func BenchmarkSeedSelection(b *testing.B) {
	const d, terms = 8, 32
	score := randomObjective(42, terms)
	b.Run("naive/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SelectSeed(nil, 1<<d, score)
		}
	})
	b.Run("naive/bitwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = SelectSeedBitwise(nil, d, score)
		}
	})
	b.Run("table/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mustSelect(nil, d, false, score)
		}
	})
	b.Run("table/bitwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = mustSelect(nil, d, true, score)
		}
	})
}
