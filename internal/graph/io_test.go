package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// WriteEdgeList writes g in the exchange format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

func TestEdgeListRoundTrip(t *testing.T) {
	for _, g := range []*Graph{Gnp(120, 0.05, 1), Complete(10), Cycle(9), Empty(5)} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("round trip size: %d/%d vs %d/%d", got.N(), got.M(), g.N(), g.M())
		}
		for v := int32(0); v < int32(g.N()); v++ {
			a, b := g.Neighbors(v), got.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("adjacency of %d differs", v)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("adjacency of %d differs", v)
				}
			}
		}
	}
}

func TestEdgeListRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		g := Gnp(n, 0.3, seed)
		var buf bytes.Buffer
		if WriteEdgeList(&buf, g) != nil {
			return false
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		return got.N() == g.N() && got.M() == g.M() && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a workload\n# generated\n3 2\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || !g.HasEdge(0, 1) {
		t.Fatal("parse wrong")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad-header":   "x y\n",
		"out-of-range": "2 1\n0 5\n",
		"wrong-count":  "3 5\n0 1\n",
		"negative":     "-3 1\n",
		"n-over-int32": "3000000000 0\n",
		"n-2e9":        "2000000000 0\n",
		"n-over-limit": "16777217 0\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// FuzzReadEdgeList checks that the edge-list reader never panics, that
// every graph it accepts passes Validate, and that an accepted graph
// round-trips through WriteEdgeList unchanged. The header is built from
// 16-bit fields, so a declared n costs at most 64K nodes; the body is
// arbitrary.
func FuzzReadEdgeList(f *testing.F) {
	f.Add(uint16(3), uint16(2), "0 1\n1 2\n")
	f.Add(uint16(4), uint16(3), "0 1\n1 0\n2 2\n")
	f.Add(uint16(1), uint16(0), "")
	f.Add(uint16(2), uint16(1), "0 x\n")
	f.Add(uint16(5), uint16(1), "4 -1\n")
	f.Fuzz(func(t *testing.T, n, m uint16, body string) {
		g, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("%d %d\n", n, m) + body))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip of an accepted graph failed: %v", err)
		}
		if !slices.Equal(again.offsets, g.offsets) || !slices.Equal(again.adj, g.adj) {
			t.Fatal("round trip changed the graph")
		}
	})
}
