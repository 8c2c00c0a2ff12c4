package greedy

import (
	"testing"
	"testing/quick"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

func TestAllOrdersProper(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(200, 1))
	for _, o := range []Order{ByID, ByDegeneracy} {
		col, err := Color(in, o)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if err := d1lc.Verify(in, col); err != nil {
			t.Fatalf("%v: %v", o, err)
		}
	}
}

func TestPropertyAlwaysProper(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		in := d1lc.RandomPalettes(graph.Gnp(n, 0.3, seed), 1, 3*n, seed)
		col, err := Color(in, ByID)
		if err != nil {
			return false
		}
		return d1lc.Verify(in, col) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctColors(t *testing.T) {
	col := d1lc.NewColoring(4)
	col.Colors = []int32{1, 2, 1, d1lc.Uncolored}
	if DistinctColors(col) != 2 {
		t.Fatal("count wrong")
	}
}

func TestDegeneracyOrderColorBound(t *testing.T) {
	// Reverse-degeneracy greedy must use at most degeneracy+1 colors on a
	// (Δ+1)-palette instance.
	g := graph.PowerLaw(300, 3, 4)
	in := d1lc.DeltaPlus1Palettes(g)
	col, err := Color(in, ByDegeneracy)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
	_, degen := graph.DegeneracyOrder(g)
	if used := DistinctColors(col); used > degen+1 {
		t.Fatalf("degeneracy greedy used %d colors > degeneracy+1 = %d", used, degen+1)
	}
}
