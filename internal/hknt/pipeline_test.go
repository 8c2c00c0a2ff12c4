package hknt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

func TestSlackColorScheduleStructure(t *testing.T) {
	tun := Tunables{}.WithDefaults(1000, 50)
	steps := SlackColorSchedule("x", []int32{0, 1, 2}, 51, tun)
	if len(steps) < tun.TRCRounds+3 {
		t.Fatalf("suspiciously short schedule: %d steps", len(steps))
	}
	// First steps are TRC, last is the mt-final with colored-SSP.
	for i := 0; i < tun.TRCRounds; i++ {
		if !strings.Contains(steps[i].Name, "trc") {
			t.Fatalf("step %d = %s, want trc", i, steps[i].Name)
		}
	}
	last := steps[len(steps)-1]
	if !strings.Contains(last.Name, "mt-final") || last.SSP == nil {
		t.Fatalf("last step %s", last.Name)
	}
	for _, s := range steps {
		if s.Bits <= 0 || s.Tau <= 0 || s.Propose == nil || s.Participants == nil {
			t.Fatalf("malformed step %q", s.Name)
		}
	}
}

func TestBuildColorMiddleCoversClasses(t *testing.T) {
	g := graph.Mixed(300, 3)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	build := BuildColorMiddle(st, Tunables{LowDeg: 4})
	if len(build.Schedule.Steps) == 0 {
		t.Fatal("empty schedule")
	}
	names := map[string]bool{}
	for _, s := range build.Schedule.Steps {
		names[strings.SplitN(s.Name, "/", 2)[0]] = true
	}
	if !names["sparse"] || !names["dense"] {
		t.Fatalf("schedule missing phases: %v", names)
	}
	if build.Schedule.Finisher == nil {
		t.Fatal("missing put-aside finisher")
	}
}

// TestCliqueStepsFollowLowDeg pins which cliques the clique steps take:
// only those whose maximum degree Δ_C reaches LowDeg, as the paper hands
// low-degree nodes to the low-degree algorithm. On Mixed(2000) no node
// reaches LowDeg = 37, so the build runs no analysis and both clique steps
// are empty, while the step list still matches the one a populated build
// emits.
func TestCliqueStepsFollowLowDeg(t *testing.T) {
	st := NewState(d1lc.TrivialPalettes(graph.Mixed(2000, 1)))
	build := BuildColorMiddle(st, Tunables{})
	if lowDeg := build.Tunables.LowDeg; lowDeg != 37 {
		t.Fatalf("LowDeg = %d, want 37 at n = 2000", lowDeg)
	}
	if build.ACD != nil || build.Cliques != nil {
		t.Fatal("a build below LowDeg computed the decomposition")
	}
	found := 0
	for i := range build.Schedule.Steps {
		step := &build.Schedule.Steps[i]
		if step.Name != "dense/putaside" && step.Name != "dense/synch" {
			continue
		}
		found++
		if parts := step.Participants(st); len(parts) != 0 {
			t.Fatalf("%s: %d participants below LowDeg, want 0", step.Name, len(parts))
		}
	}
	if found != 2 {
		t.Fatalf("found %d of the 2 clique steps", found)
	}

	full := BuildColorMiddle(st, Tunables{LowDeg: 4})
	if len(full.Schedule.Steps) != len(build.Schedule.Steps) {
		t.Fatalf("%d steps below LowDeg, %d above", len(build.Schedule.Steps), len(full.Schedule.Steps))
	}
	for i, s := range full.Schedule.Steps {
		if e := build.Schedule.Steps[i]; e.Name != s.Name || e.Tau != s.Tau {
			t.Fatalf("step %d: %s τ=%d below LowDeg, %s τ=%d above", i, e.Name, e.Tau, s.Name, s.Tau)
		}
	}
	if len(full.Cliques) < 2 {
		t.Fatalf("LowDeg 4 kept %d cliques, want the generator's 24-cliques", len(full.Cliques))
	}
	var inliers, lowSlack []int32
	for _, c := range full.Cliques {
		if c.MaxDeg < 4 {
			t.Fatalf("clique %d kept with Δ_C = %d < LowDeg 4", c.ID, c.MaxDeg)
		}
		inliers = append(inliers, c.Inliers...)
		if c.LowSlack {
			lowSlack = append(lowSlack, c.Inliers...)
		}
	}
	for i := range full.Schedule.Steps {
		step := &full.Schedule.Steps[i]
		var want []int32
		switch step.Name {
		case "dense/putaside":
			want = lowSlack
		case "dense/synch":
			want = inliers
		default:
			continue
		}
		if got := step.Participants(st); !slices.Equal(got, want) {
			t.Fatalf("%s: %d participants, want the %d inliers of the kept cliques", step.Name, len(got), len(want))
		}
	}

	// A LowDeg between the cliques' degrees keeps exactly the cliques
	// that reach it.
	cut := full.Cliques[0].MaxDeg
	for _, c := range full.Cliques {
		cut = max(cut, c.MaxDeg)
	}
	var kept []int32
	for _, c := range full.Cliques {
		if c.MaxDeg >= cut {
			kept = append(kept, c.ID)
		}
	}
	if len(kept) == len(full.Cliques) {
		t.Fatalf("every clique has Δ_C = %d; the cut drops none", cut)
	}
	var got []int32
	for _, c := range BuildColorMiddle(st, Tunables{LowDeg: cut}).Cliques {
		got = append(got, c.ID)
	}
	if !slices.Equal(got, kept) {
		t.Fatalf("LowDeg %d kept cliques %v, want %v", cut, got, kept)
	}
}

func TestRandomizedColorProperOnSuite(t *testing.T) {
	cases := []struct {
		name string
		in   *d1lc.Instance
	}{
		{"gnp-trivial", d1lc.TrivialPalettes(graph.Gnp(300, 0.04, 1))},
		{"gnp-random-pal", d1lc.RandomPalettes(graph.Gnp(250, 0.06, 2), 2, 120, 3)},
		{"cliques", d1lc.TrivialPalettes(graph.CliquesPlusMatching(6, 20, 4))},
		{"powerlaw", d1lc.TrivialPalettes(graph.PowerLaw(300, 5, 5))},
		{"caterpillar", d1lc.TrivialPalettes(graph.Caterpillar(40, 5))},
		{"mixed", d1lc.TrivialPalettes(graph.Mixed(300, 6))},
		{"complete", d1lc.TrivialPalettes(graph.Complete(60))},
		{"delta+1", d1lc.DeltaPlus1Palettes(graph.RandomRegular(200, 10, 7))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col, st, stats, err := RandomizedColor(nil, tc.in, 42, Tunables{})
			if err != nil {
				t.Fatal(err)
			}
			if err := d1lc.Verify(tc.in, col); err != nil {
				t.Fatalf("improper coloring: %v", err)
			}
			if st.Meter.Rounds == 0 {
				t.Fatal("no rounds accounted")
			}
			_ = stats
		})
	}
}

func TestRandomizedColorDeterministicPerSeed(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(200, 9))
	a, _, _, err := RandomizedColor(nil, in, 5, Tunables{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := RandomizedColor(nil, in, 5, Tunables{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("seed-determinism broken at node %d", v)
		}
	}
	c, _, _, err := RandomizedColor(nil, in, 6, Tunables{})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for v := range a.Colors {
		if a.Colors[v] != c.Colors[v] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical colorings (vanishingly unlikely)")
	}
}

func TestPipelineColorsMostDenseNodesBeforeCleanup(t *testing.T) {
	// On a pure clique workload, the dense pipeline (Synch + SlackColor)
	// should color a large majority before the cleanup phase.
	in := d1lc.TrivialPalettes(graph.CliquesPlusMatching(5, 24, 8))
	st := NewState(in)
	build := BuildColorMiddle(st, Tunables{LowDeg: 4})
	stats := RunRandomized(st, build.Schedule, 13)
	colored := 0
	for v := int32(0); v < int32(in.G.N()); v++ {
		if st.Colored(v) {
			colored++
		}
	}
	if colored < in.G.N()/2 {
		t.Fatalf("pipeline colored only %d of %d before cleanup", colored, in.G.N())
	}
	_ = stats
}

func TestColorPutAside(t *testing.T) {
	g := graph.Complete(6)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	st.MarkPutAside(2)
	st.MarkPutAside(4) // adjacent in K6 but palettes are large enough
	colored, failed := ColorPutAside(st)
	if colored != 2 || failed != 0 {
		t.Fatalf("colored=%d failed=%d", colored, failed)
	}
	if err := d1lc.VerifyPartial(in, st.Col, false); err != nil {
		t.Fatal(err)
	}
}

func TestCleanupRoundsColorsEverythingEventually(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(150, 0.05, 3))
	st := NewState(in)
	rounds := CleanupRounds(st, 1, 200)
	if rounds >= 200 {
		t.Fatalf("cleanup did not converge (%d live left)", len(st.LiveNodes(nil)))
	}
	if err := FinishGreedy(st); err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, st.Col); err != nil {
		t.Fatal(err)
	}
}

func TestFinishGreedyHandlesDeferred(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Complete(8))
	st := NewState(in)
	st.Defer(3)
	st.Defer(5)
	if err := FinishGreedy(st); err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, st.Col); err != nil {
		t.Fatal(err)
	}
}

// finishGreedyOracle is the reference greedy base case: each uncolored
// node, in node order, takes the first color of its Rem that no neighbor
// holds, through SetColor, which keeps every neighbor's Rem maintained.
func finishGreedyOracle(st *State) error {
	for v := int32(0); v < int32(st.In.G.N()); v++ {
		if st.Colored(v) {
			continue
		}
		assigned := false
		for _, c := range st.Rem[v] {
			ok := true
			for _, u := range st.In.G.Neighbors(v) {
				if st.Col.Colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				st.SetColor(v, c)
				assigned = true
				break
			}
		}
		if !assigned {
			return fmt.Errorf("oracle: greedy finish failed at node %d", v)
		}
	}
	return nil
}

// TestFinishGreedyMatchesSetColorOracle checks that FinishGreedy, which
// marks neighbors' colors in a stale Rem instead of maintaining it, gives
// the oracle's coloring, live set and live degrees, on fresh states, after
// an applied TryRandomColor proposal, and with deferred and put-aside
// nodes, under trivial and random palettes.
func TestFinishGreedyMatchesSetColorOracle(t *testing.T) {
	instances := []struct {
		name string
		in   *d1lc.Instance
	}{
		{"gnp-trivial", d1lc.TrivialPalettes(graph.Gnp(300, 0.05, 1))},
		{"mixed-trivial", d1lc.TrivialPalettes(graph.Mixed(300, 6))},
		{"gnp-random-pal", d1lc.RandomPalettes(graph.Gnp(250, 0.06, 2), 2, 120, 3)},
		{"powerlaw-random-pal", d1lc.RandomPalettes(graph.PowerLaw(300, 5, 5), 3, 200, 4)},
	}
	preps := []struct {
		name string
		prep func(st *State)
	}{
		{"fresh", func(*State) {}},
		{"after-trc", func(st *State) {
			maxPal := maxPalette(st.In)
			src := FreshSource{Root: 7, Round: 1, Bits: TryRandomColorBits(maxPal)}
			st.Apply(TryRandomColorPropose(st, st.LiveNodes(nil), src, nil))
		}},
		{"deferred-putaside", func(st *State) {
			maxPal := maxPalette(st.In)
			src := FreshSource{Root: 9, Round: 2, Bits: TryRandomColorBits(maxPal)}
			st.Apply(TryRandomColorPropose(st, st.LiveNodes(func(v int32) bool { return v%2 == 0 }), src, nil))
			for _, v := range st.LiveNodes(nil) {
				switch {
				case v%5 == 1:
					st.Defer(v)
				case v%7 == 3:
					st.MarkPutAside(v)
				}
			}
		}},
	}
	for _, inst := range instances {
		for _, p := range preps {
			got, want := NewState(inst.in), NewState(inst.in)
			p.prep(got)
			p.prep(want)
			if err := FinishGreedy(got); err != nil {
				t.Fatalf("%s/%s: %v", inst.name, p.name, err)
			}
			if err := finishGreedyOracle(want); err != nil {
				t.Fatalf("%s/%s: %v", inst.name, p.name, err)
			}
			if err := d1lc.Verify(inst.in, got.Col); err != nil {
				t.Fatalf("%s/%s: %v", inst.name, p.name, err)
			}
			for v := int32(0); v < int32(inst.in.G.N()); v++ {
				if got.Col.Colors[v] != want.Col.Colors[v] || got.Live(v) != want.Live(v) || got.LiveDegree(v) != want.LiveDegree(v) {
					t.Fatalf("%s/%s: node %d got color %d live %v degree %d, oracle %d %v %d", inst.name, p.name, v,
						got.Col.Colors[v], got.Live(v), got.LiveDegree(v), want.Col.Colors[v], want.Live(v), want.LiveDegree(v))
				}
			}
		}
	}
}

// TestFinishGreedyHonoursCancellation checks that the greedy base case
// answers a cancelled runner with the context's error.
func TestFinishGreedyHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := NewState(d1lc.TrivialPalettes(graph.Gnp(300, 0.05, 1)))
	st.Par = par.NewRunner(1).WithContext(ctx)
	if err := FinishGreedy(st); !errors.Is(err, context.Canceled) {
		t.Fatalf("FinishGreedy on a cancelled runner = %v, want context.Canceled", err)
	}
}

func TestVstartDisjointness(t *testing.T) {
	g := graph.Mixed(400, 12)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	build := BuildColorMiddle(st, Tunables{LowDeg: 4})
	vs := build.Vstart
	inEasy := map[int32]bool{}
	for _, v := range vs.Easy {
		inEasy[v] = true
	}
	for _, v := range vs.Heavy {
		if inEasy[v] {
			t.Fatalf("node %d in both Veasy and Vheavy", v)
		}
	}
	inHeavy := map[int32]bool{}
	for _, v := range vs.Heavy {
		inHeavy[v] = true
	}
	for _, v := range vs.Start {
		if inEasy[v] || inHeavy[v] {
			t.Fatalf("Vstart node %d overlaps easy/heavy", v)
		}
	}
}

func TestRolesLeaderIsInlierAndPartition(t *testing.T) {
	g := graph.CliquesPlusMatching(4, 15, 2)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	build := BuildColorMiddle(st, Tunables{LowDeg: 4})
	for _, c := range build.Cliques {
		if len(c.Members) != len(c.Inliers)+len(c.Outliers) {
			t.Fatalf("clique %d: partition broken", c.ID)
		}
		foundLeader := false
		for _, v := range c.Inliers {
			if v == c.Leader {
				foundLeader = true
			}
		}
		if !foundLeader {
			t.Fatalf("clique %d leader %d not an inlier", c.ID, c.Leader)
		}
		if c.MaxDeg <= 0 {
			t.Fatal("MaxDeg not computed")
		}
	}
}

func TestHeavyMass(t *testing.T) {
	// Star center: each leaf has palette {0,1}, |Rem(u)|=2 ⇒ H(0)=H(1)=d/2.
	g := graph.Star(7) // 6 leaves
	pal := make([][]int32, 7)
	pal[0] = []int32{0, 1, 2, 3, 4, 5, 6}
	for v := 1; v < 7; v++ {
		pal[v] = []int32{0, 1}
	}
	st := NewState(&d1lc.Instance{G: g, Palettes: pal})
	heavy, sum := heavyMass(st, 0, 2.5)
	if len(heavy) != 2 || heavy[0] != 0 || heavy[1] != 1 {
		t.Fatalf("heavy=%v", heavy)
	}
	if math.Abs(sum-6) > 1e-9 { // 3 + 3
		t.Fatalf("sumH=%f", sum)
	}
	heavy, _ = heavyMass(st, 0, 3.5)
	if len(heavy) != 0 {
		t.Fatalf("threshold 3.5 should exclude all, got %v", heavy)
	}
}

func TestMeterAccumulates(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(100, 0.05, 1))
	st := NewState(in)
	build := BuildColorMiddle(st, Tunables{LowDeg: 4})
	RunRandomized(st, build.Schedule, 3)
	if st.Meter.Rounds < len(build.Schedule.Steps) {
		t.Fatalf("meter %d < steps %d", st.Meter.Rounds, len(build.Schedule.Steps))
	}
}

func BenchmarkRandomizedColor(b *testing.B) {
	in := d1lc.TrivialPalettes(graph.Mixed(500, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RandomizedColor(nil, in, uint64(i), Tunables{}); err != nil {
			b.Fatal(err)
		}
	}
}
