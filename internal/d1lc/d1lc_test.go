package d1lc

import (
	"testing"
	"testing/quick"

	"parcolor/internal/graph"
)

func TestTrivialPalettesCheck(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Complete(6), graph.Cycle(9), graph.Gnp(80, 0.1, 1)} {
		in := TrivialPalettes(g)
		if err := in.Check(); err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < int32(g.N()); v++ {
			if in.Slack(v) != 1 {
				t.Fatalf("trivial palette slack %d != 1", in.Slack(v))
			}
		}
	}
}

func TestDeltaPlus1Palettes(t *testing.T) {
	g := graph.Star(6)
	in := DeltaPlus1Palettes(g)
	if err := in.Check(); err != nil {
		t.Fatal(err)
	}
	if len(in.Palettes[0]) != 6 || len(in.Palettes[1]) != 6 {
		t.Fatal("palette sizes wrong")
	}
}

func TestRandomPalettesValid(t *testing.T) {
	g := graph.Gnp(120, 0.08, 3)
	in := RandomPalettes(g, 2, 50, 7)
	if err := in.Check(); err != nil {
		t.Fatal(err)
	}
	// Determinism.
	in2 := RandomPalettes(g, 2, 50, 7)
	for v := range in.Palettes {
		if len(in.Palettes[v]) != len(in2.Palettes[v]) {
			t.Fatal("not deterministic")
		}
		for i := range in.Palettes[v] {
			if in.Palettes[v][i] != in2.Palettes[v][i] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestShiftedPalettesValid(t *testing.T) {
	g := graph.Caterpillar(8, 3)
	in := ShiftedPalettes(g, 4, 10)
	if err := in.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsBadInstances(t *testing.T) {
	g := graph.Complete(3)
	in := &Instance{G: g, Palettes: [][]int32{{0, 1, 2}, {0, 1}, {0, 1, 2}}}
	if err := in.Check(); err == nil {
		t.Fatal("short palette accepted")
	}
	in = &Instance{G: g, Palettes: [][]int32{{0, 2, 1}, {0, 1, 2}, {0, 1, 2}}}
	if err := in.Check(); err == nil {
		t.Fatal("unsorted palette accepted")
	}
	in = &Instance{G: g, Palettes: [][]int32{{0, 1, 2}, {0, 1, 2}}}
	if err := in.Check(); err == nil {
		t.Fatal("missing palette accepted")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := graph.Complete(3)
	in := TrivialPalettes(g)
	col := NewColoring(3)
	if err := Verify(in, col); err == nil {
		t.Fatal("incomplete coloring accepted")
	}
	if err := VerifyPartial(in, col, false); err != nil {
		t.Fatalf("empty partial should verify: %v", err)
	}
	col.Colors = []int32{0, 1, 2}
	if err := Verify(in, col); err != nil {
		t.Fatalf("proper coloring rejected: %v", err)
	}
	col.Colors = []int32{0, 0, 2}
	if err := Verify(in, col); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	col.Colors = []int32{0, 1, 99}
	if err := Verify(in, col); err == nil {
		t.Fatal("out-of-palette color accepted")
	}
}

func TestGreedyCompleteAlwaysProper(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		g := graph.Gnp(n, 0.3, seed)
		in := TrivialPalettes(g)
		col := NewColoring(n)
		if err := GreedyComplete(in, col); err != nil {
			return false
		}
		return Verify(in, col) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceProducesValidInstance(t *testing.T) {
	g := graph.Complete(5)
	in := TrivialPalettes(g)
	col := NewColoring(5)
	col.Colors[0] = 0
	col.Colors[3] = 3
	res, orig := ReduceUncoloredPar(nil, in, col)
	if res.N() != 3 {
		t.Fatalf("residual n=%d", res.N())
	}
	if err := res.Check(); err != nil {
		t.Fatalf("residual invalid: %v", err)
	}
	// Colors 0 and 3 must be gone from every residual palette.
	for i := range res.Palettes {
		for _, c := range res.Palettes[i] {
			if c == 0 || c == 3 {
				t.Fatalf("blocked color %d still in palette of %d", c, orig[i])
			}
		}
	}
}

func TestReduceApplyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Gnp(40, 0.2, seed)
		in := RandomPalettes(g, 1, 60, seed)
		col := NewColoring(40)
		// Color a greedy prefix.
		for v := int32(0); v < 20; v++ {
			blocked := map[int32]bool{}
			for _, u := range g.Neighbors(v) {
				if c := col.Colors[u]; c != Uncolored {
					blocked[c] = true
				}
			}
			for _, c := range in.Palettes[v] {
				if !blocked[c] {
					col.Colors[v] = c
					break
				}
			}
		}
		res, orig := ReduceUncoloredPar(nil, in, col)
		if res.Check() != nil {
			return false
		}
		rcol := NewColoring(res.N())
		if GreedyComplete(res, rcol) != nil {
			return false
		}
		if Verify(res, rcol) != nil {
			return false
		}
		Apply(col, rcol, orig)
		return Verify(in, col) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSubsetOfNodes(t *testing.T) {
	g := graph.Cycle(8)
	in := TrivialPalettes(g)
	col := NewColoring(8)
	col.Colors[1] = 1
	res, orig := ReducePar(nil, in, col, []int32{0, 2})
	if res.N() != 2 {
		t.Fatal("wrong residual size")
	}
	// Node 0 and 2 both neighbor node 1 (color 1): palettes must exclude 1.
	for i := range orig {
		if res.HasColor(int32(i), 1) {
			t.Fatal("blocked color survived")
		}
	}
}

func TestUncoloredCountAndClone(t *testing.T) {
	col := NewColoring(5)
	if col.UncoloredCount() != 5 {
		t.Fatal("fresh coloring count")
	}
	col.Colors[2] = 7
	cp := col.Clone()
	cp.Colors[3] = 1
	if col.Colors[3] != Uncolored {
		t.Fatal("clone aliases original")
	}
	if col.UncoloredCount() != 4 || cp.UncoloredCount() != 3 {
		t.Fatal("counts wrong")
	}
}

func TestHasColor(t *testing.T) {
	in := &Instance{G: graph.Empty(1), Palettes: [][]int32{{2, 5, 9}}}
	for _, c := range []int32{2, 5, 9} {
		if !in.HasColor(0, c) {
			t.Fatalf("missing %d", c)
		}
	}
	for _, c := range []int32{0, 3, 10} {
		if in.HasColor(0, c) {
			t.Fatalf("spurious %d", c)
		}
	}
}

func BenchmarkGreedyComplete(b *testing.B) {
	g := graph.Gnp(2000, 0.01, 1)
	in := TrivialPalettes(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := NewColoring(g.N())
		if err := GreedyComplete(in, col); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	g := graph.Gnp(2000, 0.01, 1)
	in := TrivialPalettes(g)
	col := NewColoring(g.N())
	if err := GreedyComplete(in, col); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(in, col); err != nil {
			b.Fatal(err)
		}
	}
}
