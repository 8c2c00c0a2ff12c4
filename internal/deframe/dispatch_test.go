package deframe

import (
	"context"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/kernel"
)

// TestSolveBitIdenticalAcrossDispatchPaths runs the full defective-frame
// engine under the pure-Go and AVX2 kernel bodies and requires identical
// colorings and identical per-step seed selections. The solve's win and
// live masks run through the dispatched bitset kernels, whose vector
// bodies must be invisible end to end. Skips
// when the binary has no AVX2 path (non-amd64 or -tags noasm).
func TestSolveBitIdenticalAcrossDispatchPaths(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(150, 5))
	solve := func() (*d1lc.Coloring, []StepReport) {
		o := smallOpts()
		o.Bitwise = true
		col, rep, err := Run(context.Background(), in, o)
		if err != nil {
			t.Fatal(err)
		}
		return col, collectSteps(rep)
	}
	prev := kernel.SetAVX2ForTest(false)
	defer kernel.SetAVX2ForTest(prev)
	colG, stepsG := solve()
	if kernel.SetAVX2ForTest(true); !kernel.UsingAVX2() {
		t.Skip("AVX2 path not present in this binary")
	}
	colA, stepsA := solve()
	for v := range colG.Colors {
		if colG.Colors[v] != colA.Colors[v] {
			t.Fatalf("colorings diverge at node %d: %d (generic) vs %d (avx2)",
				v, colG.Colors[v], colA.Colors[v])
		}
	}
	if len(stepsG) != len(stepsA) {
		t.Fatalf("step counts diverge: %d vs %d", len(stepsG), len(stepsA))
	}
	for i := range stepsG {
		if stepsG[i] != stepsA[i] {
			t.Fatalf("step %d diverges: %+v vs %+v", i, stepsG[i], stepsA[i])
		}
	}
}
