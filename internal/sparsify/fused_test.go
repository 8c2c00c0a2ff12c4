package sparsify

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/trace"
)

// TestFusedMatchesSerialOracle pins the fused schedule — parallel
// restricted bins, counting-sort bucketing, arena extraction — to the
// output of the sequential copy-path schedule it replaced: the coloring
// (FNV-1a over little-endian int32 colors) and the full report, including
// the copy counters and the Lemma 23(a) certificate, for every worker
// bound. The graphs are dense enough that the partitioner fires on two
// recursion levels; the Chung–Lu one has lopsided bins. The values were
// recorded from the sequential schedule, which agreed with the fused one
// on every case here.
func TestFusedMatchesSerialOracle(t *testing.T) {
	cases := []struct {
		in     *d1lc.Instance
		colors uint64
		rep    Report
	}{
		{d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1)), 0x385e32547fb26148,
			Report{Depth: 2, Partitions: 5, BaseInstances: 20, BaseNodes: 600, MovedToMid: 7,
				CopiedNodes: 1196, CopiedArcs: 15980, MaxDegreeRatio: 0.9473684210526315}},
		{d1lc.TrivialPalettes(graph.Gnp(400, 0.08, 7)), 0x13ad7abf9d2bae8b,
			Report{Depth: 2, Partitions: 3, BaseInstances: 9, BaseNodes: 400, MovedToMid: 41,
				CopiedNodes: 594, CopiedArcs: 3874, MaxDegreeRatio: 0.9285714285714286}},
		{d1lc.TrivialPalettes(graph.ChungLu(800, 2.5, 40, 3)), 0x938bf943bf3836c2,
			Report{Depth: 2, Partitions: 5, BaseInstances: 21, BaseNodes: 800, MovedToMid: 95,
				CopiedNodes: 1438, CopiedArcs: 7030, MaxDegreeRatio: 0.9333333333333333}},
	}
	for gi, c := range cases {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			o := Options{Bins: 4, MidDegree: 12}
			o.Par = par.NewRunner(workers)
			col, rep, err := ColorReduce(context.Background(), c.in, o, greedyBase)
			if err != nil {
				t.Fatalf("graph %d workers=%d: %v", gi, workers, err)
			}
			h := fnv.New64a()
			var b [4]byte
			for _, v := range col.Colors {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != c.colors {
				t.Errorf("graph %d workers=%d: coloring hash %#x, oracle %#x", gi, workers, got, c.colors)
			}
			if *rep != c.rep {
				t.Errorf("graph %d workers=%d: report %+v, oracle %+v", gi, workers, *rep, c.rep)
			}
		}
	}
}

// TestFusedEmitsBinSpans pins the per-bin trace spans: phase "bin" under
// engine "sparsify", one span per non-empty bin per partition level.
func TestFusedEmitsBinSpans(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1))
	tc := trace.NewCollector()
	o := Options{Bins: 4, MidDegree: 12, Trace: tc}
	if _, _, err := ColorReduce(context.Background(), in, o, greedyBase); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tc.Summary() {
		if s.Engine == "sparsify" && s.Phase == "bin" {
			found = true
			if s.Count == 0 || s.Participants == 0 {
				t.Fatalf("empty bin summary %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("no sparsify/bin spans observed")
	}
}

// TestColorReduceCancelMidFanOut cancels the context from inside a base
// solve — i.e. while the restricted-bin fan-out is in flight — and
// expects a clean context.Canceled return with no coloring.
func TestColorReduceCancelMidFanOut(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(600, 0.15, 1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	base := func(sub *d1lc.Instance) (*d1lc.Coloring, error) {
		if calls.Add(1) == 1 {
			cancel() // first base solve pulls the plug mid-schedule
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return greedyBase(sub)
	}
	o := Options{Bins: 4, MidDegree: 12}
	col, _, err := ColorReduce(ctx, in, o, base)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if col != nil {
		t.Fatal("got a coloring alongside the error")
	}
}
