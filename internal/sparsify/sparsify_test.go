package sparsify

import (
	"context"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

func greedyBase(in *d1lc.Instance) (*d1lc.Coloring, error) {
	col := d1lc.NewColoring(in.G.N())
	if err := d1lc.GreedyComplete(in, col); err != nil {
		return nil, err
	}
	return col, nil
}

func TestComputePartitionProperties(t *testing.T) {
	g := graph.Gnp(600, 0.15, 1) // dense: plenty of high-degree nodes
	in := d1lc.TrivialPalettes(g)
	for _, strat := range []Strategy{SeedSearch, GF2CondExp, RandomOnce} {
		part, err := Compute(in, Options{Bins: 4, MidDegree: 20, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		partitioned := 0
		for v := int32(0); v < int32(g.N()); v++ {
			b := part.NodeBin[v]
			if g.Degree(v) <= 20 && b >= 0 {
				t.Fatalf("%v: low-degree node %d assigned bin %d", strat, v, b)
			}
			if b < 0 {
				continue
			}
			partitioned++
			if int(b) >= part.Bins {
				t.Fatalf("%v: bin %d out of range", strat, b)
			}
			// Lemma 23 properties (enforced by construction).
			d := g.Degree(v)
			dP := part.SameBinDegree(g, v)
			if float64(dP) >= maxF(2*float64(d)/float64(part.Bins), 1) {
				t.Fatalf("%v: node %d degree property violated: d=%d d'=%d bins=%d",
					strat, v, d, dP, part.Bins)
			}
			pP := len(part.appendRestrictedPalette(nil, in, v))
			if dP >= pP {
				t.Fatalf("%v: node %d palette property violated: d'=%d p'=%d", strat, v, dP, pP)
			}
		}
		if partitioned == 0 {
			t.Fatalf("%v: nothing partitioned", strat)
		}
		t.Logf("%v: partitioned=%d movedToMid=%d", strat, partitioned, part.MovedToMid)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestSeedSearchBeatsRandomOnViolations(t *testing.T) {
	// Seed search should never move more nodes to G_mid than seed 0 does.
	g := graph.Gnp(500, 0.12, 9)
	in := d1lc.TrivialPalettes(g)
	search, err := Compute(in, Options{Bins: 4, MidDegree: 16, Strategy: SeedSearch})
	if err != nil {
		t.Fatal(err)
	}
	random, err := Compute(in, Options{Bins: 4, MidDegree: 16, Strategy: RandomOnce})
	if err != nil {
		t.Fatal(err)
	}
	if search.MovedToMid > random.MovedToMid {
		t.Fatalf("seed search moved %d > random's %d", search.MovedToMid, random.MovedToMid)
	}
}

func TestComputeDeterministic(t *testing.T) {
	g := graph.Gnp(400, 0.1, 5)
	in := d1lc.TrivialPalettes(g)
	for _, strat := range []Strategy{SeedSearch, GF2CondExp} {
		a, _ := Compute(in, Options{Bins: 4, MidDegree: 16, Strategy: strat})
		b, _ := Compute(in, Options{Bins: 4, MidDegree: 16, Strategy: strat})
		for v := range a.NodeBin {
			if a.NodeBin[v] != b.NodeBin[v] {
				t.Fatalf("%v: nondeterministic at node %d", strat, v)
			}
		}
	}
}

func TestGF2ReducesMonochromaticEdges(t *testing.T) {
	// The first GF2 split must leave at most half the high-high edges
	// monochromatic (conditional expectations guarantee ≤ mean = m/2).
	g := graph.Gnp(300, 0.2, 3)
	in := d1lc.TrivialPalettes(g)
	part, err := Compute(in, Options{Bins: 2, MidDegree: 10, Strategy: GF2CondExp})
	if err != nil {
		t.Fatal(err)
	}
	mono, total := 0, 0
	for v := int32(0); v < int32(g.N()); v++ {
		if part.NodeBin[v] < 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if u > v && part.NodeBin[u] >= 0 {
				total++
				if part.NodeBin[u] == part.NodeBin[v] {
					mono++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no high-high edges")
	}
	if mono*2 > total {
		t.Fatalf("GF2 split left %d/%d edges monochromatic (> half)", mono, total)
	}
}

func TestColorReduceProperOnSuite(t *testing.T) {
	cases := map[string]*d1lc.Instance{
		"gnp-dense":  d1lc.TrivialPalettes(graph.Gnp(300, 0.2, 1)),
		"gnp-sparse": d1lc.TrivialPalettes(graph.Gnp(300, 0.02, 2)),
		"cliques":    d1lc.TrivialPalettes(graph.CliquesPlusMatching(5, 30, 3)),
		"mixed":      d1lc.TrivialPalettes(graph.Mixed(300, 4)),
		"random-pal": d1lc.RandomPalettes(graph.Gnp(200, 0.25, 5), 2, 300, 6),
		"complete":   d1lc.TrivialPalettes(graph.Complete(80)),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			col, rep, err := ColorReduce(context.Background(), in, Options{Bins: 4, MidDegree: 12}, greedyBase)
			if err != nil {
				t.Fatal(err)
			}
			if err := d1lc.Verify(in, col); err != nil {
				t.Fatal(err)
			}
			if rep.MaxDegreeRatio >= 1 {
				t.Fatalf("Lemma 23(a) certificate violated: ratio %f", rep.MaxDegreeRatio)
			}
		})
	}
}

func TestColorReduceRecursionDepth(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(400, 0.3, 7))
	_, rep, err := ColorReduce(context.Background(), in, Options{Bins: 3, MidDegree: 10}, greedyBase)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Depth > 4 {
		t.Fatalf("depth %d exceeds cap", rep.Depth)
	}
	if rep.Partitions == 0 {
		t.Fatal("expected at least one partition on a dense instance")
	}
	t.Logf("report: %+v", rep)
}

func TestColorReduceLowDegreeSkipsPartition(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Cycle(50))
	_, rep, err := ColorReduce(context.Background(), in, Options{Bins: 4, MidDegree: 12}, greedyBase)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions != 0 || rep.BaseInstances != 1 {
		t.Fatalf("low-degree instance should go straight to base: %+v", rep)
	}
}

func TestColorReduceGF2Strategy(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(250, 0.25, 8))
	col, _, err := ColorReduce(context.Background(), in, Options{Bins: 4, MidDegree: 12, Strategy: GF2CondExp}, greedyBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1lc.Verify(in, col); err != nil {
		t.Fatal(err)
	}
}

func TestColorReduceEmpty(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Empty(0))
	col, _, err := ColorReduce(context.Background(), in, Options{}, greedyBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Colors) != 0 {
		t.Fatal("empty instance")
	}
}

func BenchmarkColorReduce(b *testing.B) {
	in := d1lc.TrivialPalettes(graph.Gnp(500, 0.1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ColorReduce(context.Background(), in, Options{Bins: 4, MidDegree: 16}, greedyBase); err != nil {
			b.Fatal(err)
		}
	}
}
