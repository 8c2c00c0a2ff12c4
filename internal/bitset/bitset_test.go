package bitset

import (
	"math/rand"
	"testing"

	"parcolor/internal/par"
)

// raggedSizes covers the word-boundary cases the engines hit: empty and
// single-node participant sets, exact multiples of 64, and stragglers on
// either side of a word boundary. The last three reach parWordThreshold
// words and more, so FillPar's word-aligned fan-out runs.
var raggedSizes = []int{0, 1, 2, 63, 64, 65, 127, 128, 130, 191, 192, 300, 1000, 4096, 4097, 12293}

// reference is the naive bool-slice oracle every mask operation is pinned
// against.
type reference []bool

func (r reference) countRange(lo, hi int) int {
	c := 0
	for i := lo; i < hi && i < len(r); i++ {
		if r[i] {
			c++
		}
	}
	return c
}

func randomPair(n int, rng *rand.Rand) (Mask, reference) {
	m, r := New(n), make(reference, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			m.Set(i)
			r[i] = true
		}
	}
	return m, r
}

func checkAgainst(t *testing.T, m Mask, r reference, label string) {
	t.Helper()
	for i := range r {
		if m.Test(i) != r[i] {
			t.Fatalf("%s: Test(%d) = %v, want %v", label, i, m.Test(i), r[i])
		}
	}
	if got, want := m.Count(), r.countRange(0, len(r)); got != want {
		t.Fatalf("%s: Count = %d, want %d", label, got, want)
	}
}

func TestMaskOpsMatchReference(t *testing.T) {
	for _, n := range raggedSizes {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		m, r := New(n), make(reference, n)
		for op := 0; op < 4*n+8; op++ {
			if n > 0 {
				i := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					m.Set(i)
					r[i] = true
				case 1:
					m.Clear(i)
					r[i] = false
				default:
					b := rng.Intn(2) == 0
					m.SetTo(i, b)
					r[i] = b
				}
			}
		}
		checkAgainst(t, m, r, "ops")
	}
}

func TestForEachAscendingAndComplete(t *testing.T) {
	for _, n := range raggedSizes {
		rng := rand.New(rand.NewSource(int64(n) + 19))
		m, r := randomPair(n, rng)
		last := -1
		var seen []int
		m.ForEach(func(i int) {
			if i <= last {
				t.Fatalf("n=%d: ForEach not ascending (%d after %d)", n, i, last)
			}
			last = i
			seen = append(seen, i)
		})
		want := 0
		for i, b := range r {
			if !b {
				continue
			}
			if want >= len(seen) || seen[want] != i {
				t.Fatalf("n=%d: ForEach missed bit %d", n, i)
			}
			want++
		}
		if want != len(seen) {
			t.Fatalf("n=%d: ForEach visited %d extra bits", n, len(seen)-want)
		}
	}
}

// TestFillParWorkerInvariance pins the parallel fill bit-identical to the
// sequential Fill under worker counts 1, 4 and GOMAXPROCS, over every
// ragged size: those past parWordThreshold words split the mask across
// workers, and CI runs the split under -race.
func TestFillParWorkerInvariance(t *testing.T) {
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS default
		r := par.NewRunner(workers)
		for _, n := range raggedSizes {
			pred := func(i int) bool { return i%3 == 0 || i%7 == 2 }
			want := New(n)
			want.Fill(n, pred)

			got := New(n)
			// Poison the backing words: Fill* must fully rewrite them.
			for i := range got {
				got[i] = ^uint64(0)
			}
			got.FillPar(r, n, pred)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d n=%d: FillPar word %d = %x, want %x", workers, n, i, got[i], want[i])
				}
			}

			// The same set as a colors-with-sentinel array, filled with
			// the compare Proposal.RecomputeWin uses.
			xs := make([]int32, n)
			for i := range xs {
				if pred(i) {
					xs[i] = int32(i)
				} else {
					xs[i] = -1
				}
			}
			for i := range got {
				got[i] = ^uint64(0)
			}
			got.FillPar(r, n, func(i int) bool { return xs[i] != -1 })
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d n=%d: FillPar from sentinel word %d mismatch", workers, n, i)
				}
			}
		}
	}
}

func TestGrowPreservesCapacityContract(t *testing.T) {
	m := New(64)
	m.Set(3)
	g := m.Grow(128)
	if len(g) != 2 {
		t.Fatalf("Grow(128) len = %d, want 2", len(g))
	}
	g.Reset()
	if g.Count() != 0 {
		t.Fatal("Reset after Grow must zero")
	}
	// Shrinking reuses the same backing array.
	s := g.Grow(10)
	if len(s) != 1 {
		t.Fatalf("Grow(10) len = %d, want 1", len(s))
	}
}

// TestMaskWordOpsMatchReference checks the word-loop mask operations
// (Count, and FillPar from a sentinel compare) against the naive oracle
// on random masks.
func TestMaskWordOpsMatchReference(t *testing.T) {
	for _, n := range raggedSizes {
		rng := rand.New(rand.NewSource(int64(n) + 77))
		m, r := randomPair(n, rng)
		checkAgainst(t, m, r, "random")
		xs := make([]int32, n)
		for i := range xs {
			if rng.Intn(2) == 0 {
				xs[i] = -1
			} else {
				xs[i] = int32(i)
			}
		}
		neq := New(n)
		neq.FillPar(nil, n, func(i int) bool { return xs[i] != -1 })
		for i := 0; i < n; i++ {
			if neq.Test(i) != (xs[i] != -1) {
				t.Fatalf("n=%d: FillPar bit %d = %v, want %v", n, i, neq.Test(i), xs[i] != -1)
			}
		}
	}
}

// TestFillOnesMatchesFill pins the all-ones fill to the pred-driven
// reference: same set bits, same zero tail.
func TestFillOnesMatchesFill(t *testing.T) {
	for _, n := range raggedSizes {
		// Each ragged tail again, behind 4096 whole bits.
		for _, sz := range []int{n, n + 64*parWordThreshold} {
			want := New(sz)
			want.Fill(sz, func(int) bool { return true })

			got := New(sz)
			// Poison so the tail-zero invariant is actually exercised.
			for i := range got {
				got[i] = 0xa5a5a5a5a5a5a5a5
			}
			got.FillOnes(sz)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sz=%d: FillOnes word %d = %x, want %x", sz, i, got[i], want[i])
				}
			}
			if sz > 0 && got.Count() != sz {
				t.Fatalf("sz=%d: Count after FillOnes = %d", sz, got.Count())
			}
		}
	}
}
