package graph

import (
	"testing"

	"parcolor/internal/par"
	"parcolor/internal/rng"
)

// Differential test: StreamBuilder's two-pass construction must produce
// exactly the graph the one-shot Builder produces from the same edge set
// (duplicate-free input, since StreamBuilder requires exact counts).
func TestStreamBuilderMatchesBuilder(t *testing.T) {
	r := par.NewRunner(0)
	ref := Gnp(400, 0.03, 9)
	b := NewStreamBuilder(ref.N())
	for u := int32(0); int(u) < ref.N(); u++ {
		b.CountArcs(u, ref.Degree(u))
	}
	b.BeginFill()
	for u := int32(0); int(u) < ref.N(); u++ {
		for _, v := range ref.Neighbors(u) {
			b.FillArc(u, v)
		}
	}
	for _, sorted := range []bool{true, false} {
		// Fill order above is sorted, so both modes must agree.
		bb := NewStreamBuilder(ref.N())
		for u := int32(0); int(u) < ref.N(); u++ {
			bb.CountArcs(u, ref.Degree(u))
		}
		bb.BeginFill()
		for u := int32(0); int(u) < ref.N(); u++ {
			for _, v := range ref.Neighbors(u) {
				bb.FillArc(u, v)
			}
		}
		g, err := bb.Finish(r, sorted)
		if err != nil {
			t.Fatalf("sorted=%v: %v", sorted, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("sorted=%v: %v", sorted, err)
		}
		if g.N() != ref.N() || g.M() != ref.M() {
			t.Fatalf("sorted=%v: size mismatch", sorted)
		}
		for u := int32(0); int(u) < ref.N(); u++ {
			got, want := g.Neighbors(u), ref.Neighbors(u)
			if len(got) != len(want) {
				t.Fatalf("sorted=%v: degree of %d differs", sorted, u)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sorted=%v: adjacency of %d differs", sorted, u)
				}
			}
		}
	}
}

func TestStreamBuilderUnsortedFill(t *testing.T) {
	// Fill arcs in reverse order; Finish(r, false) must sort them.
	r := par.NewRunner(0)
	ref := Mixed(150, 3)
	b := NewStreamBuilder(ref.N())
	for u := int32(0); int(u) < ref.N(); u++ {
		b.CountArcs(u, ref.Degree(u))
	}
	b.BeginFill()
	for u := int32(0); int(u) < ref.N(); u++ {
		nb := ref.Neighbors(u)
		for i := len(nb) - 1; i >= 0; i-- {
			b.FillArc(u, nb[i])
		}
	}
	g, err := b.Finish(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != ref.M() {
		t.Fatalf("m=%d want %d", g.M(), ref.M())
	}
}

func TestStreamBuilderRejectsBadFills(t *testing.T) {
	r := par.NewRunner(0)

	// Duplicate arc.
	b := NewStreamBuilder(2)
	b.CountArcs(0, 2)
	b.CountArcs(1, 1)
	b.BeginFill()
	b.FillArc(0, 1)
	b.FillArc(1, 0)
	b.FillArc(0, 1)
	if _, err := b.Finish(r, false); err == nil {
		t.Fatal("duplicate arc not rejected")
	}

	// Self-loop.
	b = NewStreamBuilder(2)
	b.CountArcs(1, 1)
	b.BeginFill()
	b.FillArc(1, 1)
	if _, err := b.Finish(r, false); err == nil {
		t.Fatal("self-loop not rejected")
	}

	// Undercounted node: fill exceeds count panics at FillArc; an
	// underfilled node must be caught at Finish.
	b = NewStreamBuilder(3)
	b.CountArcs(0, 2)
	b.CountArcs(1, 1)
	b.CountArcs(2, 1)
	b.BeginFill()
	b.FillArc(0, 1)
	b.FillArc(1, 0)
	b.FillArc(2, 0)
	if _, err := b.Finish(r, false); err == nil {
		t.Fatal("underfilled node not rejected")
	}
}

func TestBuilderReserve(t *testing.T) {
	b := NewBuilder(100)
	b.Reserve(300)
	s := rng.New(7)
	for i := 0; i < 300; i++ {
		b.AddEdge(int32(s.Intn(100)), int32(s.Intn(100)))
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChungLuGenerator(t *testing.T) {
	g := ChungLu(500, 2.5, 10, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() == 0 || g.M() > 500*10/2 {
		t.Fatalf("unexpected edge count %d", g.M())
	}
	// Deterministic in seed.
	h := ChungLu(500, 2.5, 10, 3)
	if h.M() != g.M() {
		t.Fatal("ChungLu not deterministic")
	}
	// Heavy tail: max degree well above the average.
	avg := float64(2*g.M()) / float64(g.N())
	if float64(g.MaxDegree()) < 3*avg {
		t.Fatalf("max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), avg)
	}
	// Streaming emitter matches the builder path's input stream.
	count := 0
	ChungLuEdges(500, 2.5, 10, 3, func(u, v int32) {
		count++
		if u < 0 || v < 0 || u >= 500 || v >= 500 || u == v {
			t.Fatalf("bad emitted edge (%d,%d)", u, v)
		}
	})
	if count < g.M() {
		t.Fatalf("emitter produced %d candidates < %d kept edges", count, g.M())
	}
}
