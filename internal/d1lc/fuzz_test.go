package d1lc

import (
	"testing"

	"parcolor/internal/graph"
)

// FuzzGreedyOnArbitraryGraphs drives GreedyComplete over generated
// instances: any valid instance must be colorable.
func FuzzGreedyOnArbitraryGraphs(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(30))
	f.Add(uint64(99), uint8(3), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, pRaw uint8) {
		n := int(nRaw%50) + 1
		p := float64(pRaw%100) / 100
		g := graph.Gnp(n, p, seed)
		in := TrivialPalettes(g)
		col := NewColoring(n)
		if err := GreedyComplete(in, col); err != nil {
			t.Fatalf("greedy failed on valid instance: %v", err)
		}
		if err := Verify(in, col); err != nil {
			t.Fatal(err)
		}
	})
}
