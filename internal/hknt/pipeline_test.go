package hknt

import (
	"strings"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
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

// TestCliqueStepsTakeLowDegreeInliers pins which nodes the clique steps
// schedule: dense/putaside and dense/synch take every live inlier of their
// cliques whatever its degree, while LowDeg filters only the sparse/uneven,
// dense and outlier bases. On Mixed(2000) every inlier the two steps start
// with lies below LowDeg = 37. Restricting the steps to high-degree nodes
// would change colorings, so this test makes such a change deliberate.
func TestCliqueStepsTakeLowDegreeInliers(t *testing.T) {
	st := NewState(d1lc.TrivialPalettes(graph.Mixed(2000, 1)))
	build := BuildColorMiddle(st, Tunables{})
	lowDeg := build.Tunables.LowDeg
	if lowDeg != 37 {
		t.Fatalf("LowDeg = %d, want 37 at n = 2000", lowDeg)
	}
	found := 0
	for i := range build.Schedule.Steps {
		step := &build.Schedule.Steps[i]
		if step.Name != "dense/putaside" && step.Name != "dense/synch" {
			continue
		}
		found++
		parts := step.Participants(st)
		if len(parts) < 390 {
			t.Fatalf("%s: %d participants, want the ~400 live clique inliers", step.Name, len(parts))
		}
		for _, v := range parts {
			if d := st.In.G.Degree(v); d >= lowDeg {
				t.Fatalf("%s: participant %d has degree %d ≥ LowDeg %d", step.Name, v, d, lowDeg)
			}
		}
	}
	if found != 2 {
		t.Fatalf("found %d of the 2 clique steps", found)
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
