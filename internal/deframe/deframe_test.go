package deframe

import (
	"context"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
)

// LevelCount returns the number of recursion levels used.
func (r *Report) LevelCount() int {
	if r.Recursed == nil {
		return 1
	}
	return 1 + r.Recursed.LevelCount()
}

func smallOpts() Options {
	return Options{SeedBits: 6, Tunables: hknt.Tunables{LowDeg: 4}}
}

func TestRunProperOnSuite(t *testing.T) {
	cases := []struct {
		name string
		in   *d1lc.Instance
	}{
		{"gnp", d1lc.TrivialPalettes(graph.Gnp(150, 0.05, 1))},
		{"cliques", d1lc.TrivialPalettes(graph.CliquesPlusMatching(4, 15, 2))},
		{"mixed", d1lc.TrivialPalettes(graph.Mixed(180, 3))},
		{"random-pal", d1lc.RandomPalettes(graph.Gnp(120, 0.08, 4), 2, 80, 5)},
		{"complete", d1lc.TrivialPalettes(graph.Complete(40))},
		{"caterpillar", d1lc.TrivialPalettes(graph.Caterpillar(25, 4))},
		{"cycle", d1lc.TrivialPalettes(graph.Cycle(90))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col, rep, err := Run(context.Background(), tc.in, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := d1lc.Verify(tc.in, col); err != nil {
				t.Fatalf("improper: %v", err)
			}
			if !rep.CertificatesHold() {
				t.Fatal("conditional-expectations certificate violated")
			}
		})
	}
}

func TestRunFullyDeterministic(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(160, 7))
	a, repA, err := Run(context.Background(), in, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := Run(context.Background(), in, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("deterministic solver diverged at node %d", v)
		}
	}
	if repA.TotalRounds() != repB.TotalRounds() || repA.TotalDeferred() != repB.TotalDeferred() {
		t.Fatal("reports diverged")
	}
}

func TestBitwiseMatchesGuarantee(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(100, 0.06, 9))
	o := smallOpts()
	o.Bitwise = true
	col, rep, err := Run(context.Background(), in, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	if !rep.CertificatesHold() {
		t.Fatal("bitwise certificate violated")
	}
}

func TestNisanPRGWorks(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(100, 0.06, 2))
	o := smallOpts()
	o.PRG = PRGNisan
	col, _, err := Run(context.Background(), in, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
}

func TestChunkAssignmentModes(t *testing.T) {
	g := graph.Cycle(80)
	chunkOf, num, mode := chunkAssignment(nil, g, 8, 2_000_000)
	if mode != "linial-power" {
		t.Fatalf("expected linial-power on a cycle, got %s", mode)
	}
	if num <= 8 {
		t.Fatalf("chunk count %d too small for radius 8", num)
	}
	// Distance ≤ 8 nodes must get distinct chunks.
	for v := 0; v < 80; v++ {
		for d := 1; d <= 8; d++ {
			u := (v + d) % 80
			if chunkOf[v] == chunkOf[u] {
				t.Fatalf("distance-%d nodes %d,%d share chunk", d, v, u)
			}
		}
	}
	// Force identity mode with a tiny budget.
	_, num2, mode2 := chunkAssignment(nil, g, 8, 10)
	if mode2 != "identity" || num2 != 80 {
		t.Fatalf("expected identity fallback, got %s/%d", mode2, num2)
	}
}

func TestDerandomizeStepDefersFailures(t *testing.T) {
	// A step whose SSP is "won" defers exactly the non-winners.
	in := d1lc.TrivialPalettes(graph.Complete(12))
	st := hknt.NewState(in)
	base := st.LiveNodes(nil)
	step := hknt.Step{
		Name:         "strict",
		Tau:          2,
		Bits:         hknt.TryRandomColorBits(12),
		Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
		Propose:      hknt.TryRandomColorPropose,
		SSP: func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
			return prop.Color[v] != d1lc.Uncolored
		},
	}
	chunkOf, num, _ := chunkAssignment(nil, in.G, 4, 1_000_000)
	rep, err := derandomizeStep(st, &step, chunkOf, num, Options{}.withDefaults(11), selectByEngine)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Participants != len(base) {
		t.Fatal("participant accounting")
	}
	live, colored, deferred := 0, 0, 0
	for v := int32(0); v < 12; v++ {
		switch {
		case st.Colored(v):
			colored++
		case st.Deferred[v]:
			deferred++
		default:
			live++
		}
	}
	if colored != rep.Colored || deferred != rep.Deferred {
		t.Fatalf("report mismatch: %+v vs colored=%d deferred=%d", rep, colored, deferred)
	}
	if live != 0 {
		t.Fatal("every K12 node should be colored or deferred under won-SSP")
	}
	if rep.Score > rep.MeanUpper {
		t.Fatal("certificate violated")
	}
}

func TestSeedSelectionBeatsMeanEmpirically(t *testing.T) {
	// The chosen seed's failure count must be ≤ the seed-space mean; on
	// K_n with trivial palettes random trials fail often, so the gap is
	// visible and the certificate is non-vacuous.
	in := d1lc.TrivialPalettes(graph.Complete(16))
	st := hknt.NewState(in)
	step := hknt.Step{
		Name:         "trc",
		Tau:          2,
		Bits:         hknt.TryRandomColorBits(16),
		Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
		Propose:      hknt.TryRandomColorPropose,
		SSP: func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
			return prop.Color[v] != d1lc.Uncolored
		},
	}
	chunkOf, num, _ := chunkAssignment(nil, in.G, 4, 1_000_000)
	rep, err := derandomizeStep(st, &step, chunkOf, num, Options{SeedBits: 8}.withDefaults(15), selectByEngine)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score > rep.MeanUpper {
		t.Fatalf("score %d exceeds mean bound %d", rep.Score, rep.MeanUpper)
	}
	if rep.SeedSpace != 256 {
		t.Fatalf("seed space %d", rep.SeedSpace)
	}
}

func TestRunRecursionTerminates(t *testing.T) {
	// Adversarial tunables (LowDeg enormous → nothing scheduled) must not
	// loop: depth collapses to the greedy base case.
	in := d1lc.TrivialPalettes(graph.Gnp(120, 0.05, 6))
	o := smallOpts()
	o.Tunables.LowDeg = 1 << 20
	col, rep, err := Run(context.Background(), in, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	if rep.LevelCount() > 2 {
		t.Fatalf("recursion too deep: %d", rep.LevelCount())
	}
}

func TestRunEmptyAndTinyInstances(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		in := d1lc.TrivialPalettes(graph.Gnp(n, 0.5, 1))
		col, _, err := Run(context.Background(), in, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := d1lc.Verify(in, col); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReportAccounting(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(150, 4))
	_, rep, err := Run(context.Background(), in, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRounds() <= 0 {
		t.Fatal("no rounds recorded")
	}
	if rep.MaxDeferralFraction() < 0 || rep.MaxDeferralFraction() > 1 {
		t.Fatalf("deferral fraction %f out of range", rep.MaxDeferralFraction())
	}
	if rep.LevelCount() < 1 {
		t.Fatal("levels")
	}
}

func BenchmarkRunDeterministic(b *testing.B) {
	in := d1lc.TrivialPalettes(graph.Gnp(200, 0.04, 1))
	o := smallOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(context.Background(), in, o); err != nil {
			b.Fatal(err)
		}
	}
}
