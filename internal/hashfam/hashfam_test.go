package hashfam

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"parcolor/internal/rng"
)

// K returns the independence of the family p was drawn from.
func (p Poly) K() int { return len(p.coef) }

// Value returns the polynomial at the stepper's current point.
func (s PolyStepper) Value() uint64 {
	if len(s.diffs) == 0 {
		return 0
	}
	return s.diffs[0]
}

// Advance moves the stepper one point forward.
func (s PolyStepper) Advance() { s.Bits(1) }

func TestMulmod61AgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		got := mulmod61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddmod61(t *testing.T) {
	if got := addmod61(MersennePrime61-1, 1); got != 0 {
		t.Fatalf("wraparound got %d", got)
	}
	if got := addmod61(5, 7); got != 12 {
		t.Fatalf("got %d", got)
	}
}

// TestAddmod61Boundaries pins the branch-free reductions where the sign
// mask flips: sums a+b ∈ {p−2, p−1, p, 2p−2} and differences around zero.
func TestAddmod61Boundaries(t *testing.T) {
	const p = MersennePrime61
	for _, c := range []struct{ a, b, sum uint64 }{
		{p - 2, 0, p - 2},
		{p / 2, p/2 - 1, p - 2}, // a+b = p−2 (p/2 = (p−1)/2)
		{p - 1, 0, p - 1},
		{0, p - 1, p - 1},
		{p / 2, p / 2, p - 1}, // a+b = p−1
		{p - 1, 1, 0},
		{1, p - 1, 0},
		{p/2 + 1, p / 2, 0}, // a+b = p
		{p - 1, p - 1, p - 2},
		{0, 0, 0},
	} {
		if got := addmod61(c.a, c.b); got != c.sum {
			t.Errorf("addmod61(%d, %d) = %d, want %d", c.a, c.b, got, c.sum)
		}
		if got := submod61(c.sum, c.b); got != c.a {
			t.Errorf("submod61(%d, %d) = %d, want %d", c.sum, c.b, got, c.a)
		}
	}
	for _, c := range []struct{ a, b, diff uint64 }{
		{0, 0, 0},
		{p - 1, p - 1, 0},
		{0, 1, p - 1},
		{0, p - 1, 1},
		{p - 1, 0, p - 1},
		{1, 2, p - 1},
	} {
		if got := submod61(c.a, c.b); got != c.diff {
			t.Errorf("submod61(%d, %d) = %d, want %d", c.a, c.b, got, c.diff)
		}
	}
}

// TestAddSubmod61AgainstBigInt checks the branch-free reductions against
// math/big on random canonical residues.
func TestAddSubmod61AgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		x, y := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
		sum := new(big.Int).Mod(new(big.Int).Add(x, y), p)
		diff := new(big.Int).Mod(new(big.Int).Sub(x, y), p)
		return addmod61(a, b) == sum.Uint64() && submod61(a, b) == diff.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPolyEvalMatchesDirect(t *testing.T) {
	// h(x) = 3 + 5x + 7x² mod p, evaluated directly with big.Int.
	h := NewPoly([]uint64{3, 5, 7})
	p := new(big.Int).SetUint64(MersennePrime61)
	for _, x := range []uint64{0, 1, 2, 1000003, MersennePrime61 - 1} {
		xb := new(big.Int).SetUint64(x % MersennePrime61)
		want := new(big.Int).SetUint64(7)
		want.Mul(want, xb).Add(want, big.NewInt(5))
		want.Mul(want, xb).Add(want, big.NewInt(3))
		want.Mod(want, p)
		if got := h.Eval(x); got != want.Uint64() {
			t.Fatalf("Eval(%d)=%d want %v", x, got, want)
		}
	}
}

func TestPolyPairwiseIndependenceEmpirically(t *testing.T) {
	// Over many random degree-1 polynomials, P[h(x)=h(y) in the same bin]
	// should be ≈ 1/bins for x≠y.
	s := rng.New(77)
	const bins, trials = 16, 40000
	collide := 0
	for i := 0; i < trials; i++ {
		h := NewPoly([]uint64{s.Uint64(), s.Uint64()})
		if h.Bin(12345, bins) == h.Bin(98765, bins) {
			collide++
		}
	}
	got := float64(collide) / trials
	want := 1.0 / bins
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("collision rate %f want ≈%f", got, want)
	}
}

func TestGF2LinearBitBalance(t *testing.T) {
	s := rng.New(31)
	const trials = 20000
	ones := 0
	for i := 0; i < trials; i++ {
		h := GF2Linear{A: s.Uint64(), C: s.Uint64() & 1}
		ones += int(h.Bit(0xF00DBABE))
	}
	got := float64(ones) / trials
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("bit bias %f", got)
	}
}

func TestCollisionProbExactness(t *testing.T) {
	// Exhaustively compare CollisionProb against enumeration over all
	// completions of the seed, for 8-bit keys (treating bits [8,64) of the
	// keys as zero so only 8 seed bits matter).
	keys := []uint64{0b00000000, 0b00000001, 0b10100101, 0b11111111, 0b01010101}
	for _, x := range keys {
		for _, y := range keys {
			for fixed := uint(0); fixed <= 8; fixed++ {
				for prefix := uint64(0); prefix < 1<<fixed; prefix++ {
					num, den := CollisionProb(x, y, prefix, fixed)
					// Enumerate the remaining 8-fixed seed bits.
					rem := uint(8) - fixed
					coll, tot := 0, 0
					for suffix := uint64(0); suffix < 1<<rem; suffix++ {
						a := prefix | suffix<<fixed
						h := GF2Linear{A: a}
						if h.Bit(x) == h.Bit(y) {
							coll++
						}
						tot++
					}
					if coll*den != num*tot {
						t.Fatalf("x=%b y=%b fixed=%d prefix=%b: got %d/%d, enum %d/%d",
							x, y, fixed, prefix, num, den, coll, tot)
					}
				}
			}
		}
	}
}

func TestCollisionProbHighBitsUnfixed(t *testing.T) {
	// Keys differing in a high bit with few fixed bits: must be 1/2.
	num, den := CollisionProb(1<<40, 0, 0, 8)
	if num != 1 || den != 2 {
		t.Fatalf("got %d/%d want 1/2", num, den)
	}
	// Fully fixed seed determines everything.
	num, den = CollisionProb(1<<40, 0, 1<<40, 64)
	if num != 0 || den != 1 {
		t.Fatalf("got %d/%d want 0/1", num, den)
	}
}

func BenchmarkPolyEval(b *testing.B) {
	h := NewPoly([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Eval(uint64(i))
	}
	_ = sink
}

func BenchmarkGF2Bit(b *testing.B) {
	h := GF2Linear{A: 0x123456789ABCDEF0, C: 1}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Bit(uint64(i))
	}
	_ = sink
}

func TestPolySetCoefMatchesNewPoly(t *testing.T) {
	var p Poly
	for trial := 0; trial < 20; trial++ {
		k := 1 + trial%6
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = uint64(trial*1000003+i) * 0x9E3779B97F4A7C15
		}
		p.SetCoef(seed)
		want := NewPoly(seed)
		if p.K() != want.K() {
			t.Fatalf("K mismatch: %d vs %d", p.K(), want.K())
		}
		for x := uint64(0); x < 50; x++ {
			if p.Eval(x) != want.Eval(x) {
				t.Fatalf("trial %d: Eval(%d) differs", trial, x)
			}
		}
	}
}

func TestPolySetCoefReusesStorage(t *testing.T) {
	var p Poly
	p.SetCoef([]uint64{1, 2, 3, 4, 5, 6})
	base := &p.coef[0]
	p.SetCoef([]uint64{7, 8, 9})
	if &p.coef[0] != base {
		t.Fatal("SetCoef reallocated despite sufficient capacity")
	}
	if p.K() != 3 {
		t.Fatalf("K=%d want 3", p.K())
	}
}

// TestPolyStepperMatchesEval pins the finite-difference consecutive-point
// evaluator bit-identical to Horner evaluation for every independence k
// the PRG layer uses, across runs starting at arbitrary points — the
// contract the k-wise lazy chunk views rely on (an output bit is the
// residue's LSB, so the full residue must match exactly).
func TestPolyStepperMatchesEval(t *testing.T) {
	for k := 1; k <= 8; k++ {
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = 0x9E3779B97F4A7C15 * uint64(k*31+i+1)
		}
		p := NewPoly(seed)
		var buf []uint64
		for _, x0 := range []uint64{0, 1, 63, 64, 1000, 1 << 40} {
			st := p.Stepper(x0, buf)
			for j := uint64(0); j < 200; j++ {
				if got, want := st.Value(), p.Eval(x0+j); got != want {
					t.Fatalf("k=%d x0=%d: Value at +%d = %d, Eval = %d", k, x0, j, got, want)
				}
				st.Advance()
			}
			buf = st.Diffs()
		}
	}
}

// TestStepperBitsMatchesEval checks the packed stepping loop: Bits(m)
// holds the LSBs of Eval at the stepper's next m points and leaves it m
// points on, for every k, for run lengths that cross and fill whole
// words.
func TestStepperBitsMatchesEval(t *testing.T) {
	lsbs := func(p Poly, x uint64, m int) uint64 {
		var w uint64
		for j := 0; j < m; j++ {
			w |= p.Eval(x+uint64(j)) & 1 << uint(j)
		}
		return w
	}
	for k := 1; k <= 8; k++ {
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = 0xD1B54A32D192ED03 * uint64(k*17+i+1)
		}
		p := NewPoly(seed)
		x, y := uint64(12345), uint64(1<<40)
		s, u := p.Stepper(x, nil), p.Stepper(y, nil)
		for _, m := range []int{1, 5, 64, 63, 2, 64, 17, 0} {
			if ws, wu := s.Bits(m), u.Bits(m); ws != lsbs(p, x, m) || wu != lsbs(p, y, m) {
				t.Fatalf("k=%d m=%d: Bits = %#x, %#x, want %#x, %#x", k, m, ws, wu, lsbs(p, x, m), lsbs(p, y, m))
			}
			x, y = x+uint64(m), y+uint64(m)
			if s.Value() != p.Eval(x) || u.Value() != p.Eval(y) {
				t.Fatalf("k=%d: after Bits(%d) the steppers are off their points", k, m)
			}
		}
	}
}

// TestStepperRowsMatchEval pins difference-row seeding: a stepper seeded
// from the forward-difference rows at x0 must step through Eval's exact
// residues at x0, x0+1, …, for every k from 1 to 8, at points that include
// the top of the field (the run then wraps past p), and after SetCoef
// redraws a polynomial of another degree into reused storage.
func TestStepperRowsMatchEval(t *testing.T) {
	var reused Poly
	for k := 1; k <= 8; k++ {
		seed := make([]uint64, k)
		for i := range seed {
			seed[i] = 0x9E3779B97F4A7C15*uint64(k*29+i+3) ^ uint64(i)<<61
		}
		reused.SetCoef(seed)
		for _, p := range []Poly{NewPoly(seed), reused} {
			var buf []uint64
			for _, x0 := range []uint64{0, 1, 1 << 40, MersennePrime61 - 1 - uint64(k)} {
				st := p.Stepper(x0, buf)
				for j := uint64(0); j < 3*uint64(k)+70; j++ {
					if got, want := st.Value(), p.Eval(x0+j); got != want {
						t.Fatalf("k=%d x0=%d: Value at +%d = %d, Eval = %d", k, x0, j, got, want)
					}
					st.Advance()
				}
				buf = st.Diffs()
			}
		}
	}
}
