package hknt

import (
	"testing"
	"testing/quick"

	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/rng"
)

// sampleColors draws min(x, len(pal)) distinct colors by a partial
// Fisher–Yates over a copy of pal.
func sampleColors(pal []int32, x int, b *rng.Bits) []int32 {
	if x >= len(pal) {
		return append([]int32(nil), pal...)
	}
	cp := append([]int32(nil), pal...)
	for i := 0; i < x; i++ {
		j := i + b.TakeIntn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:x]
}

// proposalConflictFree verifies no two adjacent wins share a color and all
// wins come from remaining palettes.
func proposalConflictFree(t *testing.T, st *State, prop Proposal) {
	t.Helper()
	g := st.In.G
	for v := int32(0); v < int32(g.N()); v++ {
		c := prop.Color[v]
		if c == d1lc.Uncolored {
			continue
		}
		if !st.HasRem(v, c) {
			t.Fatalf("win %d→%d outside remaining palette", v, c)
		}
		for _, u := range g.Neighbors(v) {
			if prop.Color[u] == c {
				t.Fatalf("adjacent wins %d,%d share color %d", v, u, c)
			}
		}
	}
}

func TestTryRandomColorConflictFree(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Gnp(40, 0.15, seed)
		st := NewState(d1lc.TrivialPalettes(g))
		parts := st.LiveNodes(nil)
		prop := TryRandomColorPropose(st, parts, FreshSource{Root: seed, Bits: 256}, nil)
		proposalConflictFree(t, st, prop)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTryRandomColorDeterministic(t *testing.T) {
	g := graph.Gnp(50, 0.1, 7)
	st := NewState(d1lc.TrivialPalettes(g))
	parts := st.LiveNodes(nil)
	a := TryRandomColorPropose(st, parts, FreshSource{Root: 9, Bits: 256}, nil)
	b := TryRandomColorPropose(st, parts, FreshSource{Root: 9, Bits: 256}, nil)
	for v := range a.Color {
		if a.Color[v] != b.Color[v] {
			t.Fatal("same source, different proposal")
		}
	}
}

func TestTryRandomColorMakesProgress(t *testing.T) {
	g := graph.Cycle(100)
	st := NewState(d1lc.TrivialPalettes(g))
	parts := st.LiveNodes(nil)
	prop := TryRandomColorPropose(st, parts, FreshSource{Root: 3, Bits: 256}, nil)
	wins := 0
	for _, c := range prop.Color {
		if c != d1lc.Uncolored {
			wins++
		}
	}
	// On C_100 with 3-color palettes, expected win rate is well over 1/4.
	if wins < 15 {
		t.Fatalf("only %d wins out of 100", wins)
	}
}

func TestMultiTrialConflictFreeAndStrongerThanTRC(t *testing.T) {
	g := graph.RandomRegular(80, 6, 4)
	in := d1lc.RandomPalettes(g, 4, 40, 5)
	st := NewState(in)
	parts := st.LiveNodes(nil)
	prop1 := MultiTrialPropose(st, parts, 1, FreshSource{Root: 11, Bits: 2048}, nil)
	prop4 := MultiTrialPropose(st, parts, 4, FreshSource{Root: 11, Bits: 2048}, nil)
	proposalConflictFree(t, st, prop1)
	proposalConflictFree(t, st, prop4)
	count := func(p Proposal) int {
		n := 0
		for _, c := range p.Color {
			if c != d1lc.Uncolored {
				n++
			}
		}
		return n
	}
	if count(prop4) <= count(prop1)/2 {
		t.Fatalf("x=4 wins %d vs x=1 wins %d: larger x should not collapse", count(prop4), count(prop1))
	}
}

func TestMultiTrialSampleSizes(t *testing.T) {
	st := NewState(d1lc.TrivialPalettes(graph.Star(5)))
	b := FreshSource{Root: 1, Bits: 4096}.BitsFor(0)
	s := sampleColors(st.Rem[0], 3, b)
	if len(s) != 3 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := map[int32]bool{}
	for _, c := range s {
		if seen[c] {
			t.Fatal("duplicate in sample")
		}
		seen[c] = true
	}
	// Oversampling returns the whole palette.
	s = sampleColors(st.Rem[0], 99, b)
	if len(s) != len(st.Rem[0]) {
		t.Fatal("oversample should return all")
	}
}

func TestGenerateSlackSamplingRate(t *testing.T) {
	g := graph.Empty(4000) // no conflicts: every sampled node wins
	st := NewState(d1lc.TrivialPalettes(g))
	parts := st.LiveNodes(nil)
	prop := GenerateSlackPropose(st, parts, FreshSource{Root: 5, Bits: 64}, nil)
	wins := 0
	for _, c := range prop.Color {
		if c != d1lc.Uncolored {
			wins++
		}
	}
	// Expect ≈ n/10 = 400 ± 5σ (σ≈19).
	if wins < 300 || wins > 500 {
		t.Fatalf("GenerateSlack sampled %d of 4000, want ≈400", wins)
	}
}

func TestSynchColorTrialDistinctWithinClique(t *testing.T) {
	g := graph.Complete(12)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	all := make([]int32, 12)
	for i := range all {
		all[i] = int32(i)
	}
	ci := CliqueInfo{ID: 0, Members: all, Leader: 0, Inliers: all[1:], MaxDeg: 11}
	prop := SynchColorTrialPropose(st, []CliqueInfo{ci}, FreshSource{Root: 2, Bits: 4096}, nil)
	proposalConflictFree(t, st, prop)
	wins := 0
	for _, c := range prop.Color {
		if c != d1lc.Uncolored {
			wins++
		}
	}
	// In K_12 with shared palettes, the leader's distinct proposals are
	// conflict-free within the clique, so most inliers should win.
	if wins < 8 {
		t.Fatalf("only %d inliers won", wins)
	}
}

func TestSynchColorTrialRespectsOwnPalette(t *testing.T) {
	// Leader palette disjoint from inlier palettes: nobody can win.
	g := graph.Complete(4)
	pal := [][]int32{{100, 101, 102, 103}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}
	in := &d1lc.Instance{G: g, Palettes: pal}
	st := NewState(in)
	ci := CliqueInfo{ID: 0, Members: []int32{0, 1, 2, 3}, Leader: 0, Inliers: []int32{1, 2, 3}}
	prop := SynchColorTrialPropose(st, []CliqueInfo{ci}, FreshSource{Root: 3, Bits: 4096}, nil)
	for v, c := range prop.Color {
		if c != d1lc.Uncolored {
			t.Fatalf("node %d won %d despite disjoint palettes", v, c)
		}
	}
}

func TestPutAsideMarksIndependentSet(t *testing.T) {
	g := graph.CliquesPlusMatching(3, 10, 6)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	a := acd.Compute(in, acd.Options{})
	infos := ComputeCliqueInfos(nil, g, a, 1e9) // everything low-slack
	prop := PutAsidePropose(st, infos, func(*CliqueInfo) (int, int) { return 1, 3 }, FreshSource{Root: 8, Bits: 64}, nil)
	if prop.Mark == nil {
		t.Fatal("no marks")
	}
	marked := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if !prop.Mark.Test(int(v)) {
			continue
		}
		marked++
		for _, u := range g.Neighbors(v) {
			if prop.Mark.Test(int(u)) {
				t.Fatalf("adjacent put-aside nodes %d,%d", v, u)
			}
		}
	}
	t.Logf("marked %d nodes", marked)
}

func TestPutAsideOnlyLowSlackCliques(t *testing.T) {
	g := graph.CliquesPlusMatching(2, 8, 1)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	a := acd.Compute(in, acd.Options{})
	infos := ComputeCliqueInfos(nil, g, a, 1e9)
	for i := range infos {
		infos[i].LowSlack = i == 0 // only clique 0
	}
	prop := PutAsidePropose(st, infos, func(*CliqueInfo) (int, int) { return 1, 2 }, FreshSource{Root: 4, Bits: 64}, nil)
	for v := int32(8); v < 16; v++ {
		if prop.Mark.Test(int(v)) {
			t.Fatalf("node %d of high-slack clique marked", v)
		}
	}
}

func BenchmarkTryRandomColorPropose(b *testing.B) {
	g := graph.Gnp(2000, 0.01, 1)
	st := NewState(d1lc.TrivialPalettes(g))
	parts := st.LiveNodes(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TryRandomColorPropose(st, parts, FreshSource{Root: uint64(i), Bits: 512}, nil)
	}
}
