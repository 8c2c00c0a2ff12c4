package sparsify

import (
	"context"
	"fmt"
	"sync"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
	"parcolor/internal/trace"
)

// This file implements LowSpaceColorReduce (Algorithm 11): recursively
// partition the instance with Compute, solve bins 0..Bins−2 in parallel
// (their palettes are disjoint color classes, so no cross-bin conflicts
// are possible among them), then solve the catch-all node bin with updated
// palettes, then hand G_mid — whose palettes are updated last — to the
// base solver. The recursion tree has O(1) depth since each level divides
// the maximum degree by ≈ Bins/2 (Lemma 23 property (a)).
//
// The schedule is fused: one counting-sort pass buckets every node by
// bin, restricted bins fan out as independent work units on a split
// worker budget, and sub-instances are extracted through pooled arenas
// (see the package doc).

// BaseSolver colors a low-degree instance; the deterministic pipeline
// passes deframe.Run here, tests may pass a greedy.
//
// A BaseSolver may be invoked from several restricted bins concurrently,
// so it must be safe for concurrent calls (deframe.Run is; the solver's
// base closure serializes its report accounting).
type BaseSolver func(in *d1lc.Instance) (*d1lc.Coloring, error)

// Report describes a ColorReduce run for the E1/E4 tables.
type Report struct {
	Depth          int
	Partitions     int
	BaseInstances  int
	BaseNodes      int
	MovedToMid     int
	CopiedNodes    int64   // nodes materialized into extracted sub-instances
	CopiedArcs     int64   // directed CSR arcs materialized alongside them
	MaxDegreeRatio float64 // worst observed d′(v)·Bins / (2·d(v)) over partitioned nodes; < 1 certifies Lemma 23(a)
}

func (r *Report) merge(s *Report) {
	r.Partitions += s.Partitions
	r.BaseInstances += s.BaseInstances
	r.BaseNodes += s.BaseNodes
	r.MovedToMid += s.MovedToMid
	r.CopiedNodes += s.CopiedNodes
	r.CopiedArcs += s.CopiedArcs
	if s.MaxDegreeRatio > r.MaxDegreeRatio {
		r.MaxDegreeRatio = s.MaxDegreeRatio
	}
	if s.Depth+1 > r.Depth {
		r.Depth = s.Depth + 1
	}
}

// restrictedArenas pools the restricted-bin extraction arenas, shared by
// bins and recursion levels across one solve and across solves (the
// self-reduction arenas come from d1lc's pool). An arena is checked out
// for exactly the lifetime of its extracted sub-instance (through
// recursion and coloring write-back).
var restrictedArenas = sync.Pool{New: func() any {
	return &restrictedArena{sub: graph.NewSubgraphArena()}
}}

// restrictedArena bundles the CSR arena with the flat restricted-palette
// slab for one restricted-bin extraction.
type restrictedArena struct {
	sub  *graph.SubgraphArena
	offs []int32
	slab []int32
	pals [][]int32
}

// build extracts the restricted-bin instance for nodes (sorted
// ascending): arena CSR plus palettes carved from one slab. Slot i is
// sized by the parent palette of nodes[i] — an upper bound on p′ — with
// exclusive prefix offsets, so the parallel fill writes disjoint ranges
// and the result does not depend on the worker count.
func (a *restrictedArena) build(r *par.Runner, in *d1lc.Instance, part *Partition, nodes []int32) *d1lc.Instance {
	subG, origOf := a.sub.Extract(r, in.G, nodes)
	k := len(origOf)
	if cap(a.offs) < k+1 {
		a.offs = make([]int32, k+1)
	}
	offs := a.offs[:k+1]
	offs[0] = 0
	for i := 0; i < k; i++ {
		offs[i+1] = offs[i] + int32(len(in.Palettes[origOf[i]]))
	}
	if cap(a.slab) < int(offs[k]) {
		a.slab = make([]int32, int(offs[k]))
	}
	slab := a.slab[:cap(a.slab)]
	if cap(a.pals) < k {
		a.pals = make([][]int32, k)
	}
	pals := a.pals[:k]
	r.ForChunked(k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			slot := slab[offs[i]:offs[i]:offs[i+1]]
			pals[i] = part.appendRestrictedPalette(slot, in, origOf[i])
		}
	})
	return &d1lc.Instance{G: subG, Palettes: pals}
}

// ColorReduce colors the instance by Algorithm 11. The result is always a
// complete proper coloring for a valid instance.
//
// ctx cancels the recursion between partitions, bins and recursion levels
// — including every bin of an in-flight parallel fan-out (base solvers
// receive cancellation through their own plumbing — the deterministic
// pipeline's deframe.Run shares the same context); on cancellation
// ColorReduce returns ctx's error and no coloring.
func ColorReduce(ctx context.Context, in *d1lc.Instance, o Options, base BaseSolver) (*d1lc.Coloring, *Report, error) {
	o = o.withDefaults(in.G.N())
	o.Par = o.Par.WithContext(ctx)
	return colorReduce(in, o, base, maxDepth)
}

func colorReduce(in *d1lc.Instance, o Options, base BaseSolver, depth int) (*d1lc.Coloring, *Report, error) {
	rep := &Report{}
	n := in.G.N()
	if n == 0 {
		return d1lc.NewColoring(0), rep, nil
	}
	if err := o.Par.Err(); err != nil {
		return nil, rep, err
	}
	if depth <= 0 || in.G.MaxDegree() <= o.MidDegree {
		col, err := base(in)
		if err != nil {
			return nil, rep, err
		}
		rep.BaseInstances = 1
		rep.BaseNodes = n
		return col, rep, nil
	}

	sp := trace.Begin(o.Trace, "sparsify", "partition", maxDepth-depth, n)
	part, err := Compute(in, o)
	if err == nil {
		err = o.Par.Err() // the hash searches bail early when cancelled
	}
	if err != nil {
		sp.End(0, 0, 0)
		return nil, rep, err
	}
	// SeedEvals ≈ hash seeds tried: the searches stop at the chosen seed.
	sp.End(int(part.NodeSeed+part.ColorSeed)+2, n-part.MovedToMid, part.MovedToMid)
	rep.Partitions = 1
	rep.MovedToMid = part.MovedToMid
	// Lemma 23(a) certificate from the precomputed d′ — no per-node
	// neighbor rescan.
	for v := int32(0); v < int32(n); v++ {
		if part.NodeBin[v] < 0 {
			continue
		}
		d := in.G.Degree(v)
		if d == 0 {
			continue
		}
		ratio := float64(part.SameBinDeg[v]) * float64(part.Bins) / (2 * float64(d))
		if ratio > rep.MaxDegreeRatio {
			rep.MaxDegreeRatio = ratio
		}
	}

	// One-pass bucketing: a counting sort over NodeBin produces every
	// bin's node list at once (G_mid is bucket Bins). Scanning nodes in
	// ascending order keeps each bucket ascending and duplicate-free —
	// exactly the lists the former per-bin O(n·Bins) rescans built, and
	// the sortedness the arena extraction requires.
	bucketOff := make([]int32, part.Bins+2)
	for v := int32(0); v < int32(n); v++ {
		b := part.NodeBin[v]
		if b < 0 {
			b = int32(part.Bins)
		}
		bucketOff[b+1]++
	}
	for b := 0; b < part.Bins+1; b++ {
		bucketOff[b+1] += bucketOff[b]
	}
	bucketed := make([]int32, n)
	cursor := make([]int32, part.Bins+1)
	for v := int32(0); v < int32(n); v++ {
		b := part.NodeBin[v]
		if b < 0 {
			b = int32(part.Bins)
		}
		bucketed[bucketOff[b]+cursor[b]] = v
		cursor[b]++
	}
	bucket := func(b int) []int32 { return bucketed[bucketOff[b]:bucketOff[b+1]] }

	col := d1lc.NewColoring(n)

	// Bins 0..Bins−2: disjoint palettes, solved independently
	// (Algorithm 11 line 2 — "in parallel"). Restricted bins never read
	// col and write disjoint node sets, so they run concurrently on a
	// split worker budget; reports merge in bin-index order and the first
	// error by bin index wins, so the result does not depend on how the
	// bins interleave.
	restricted := part.Bins - 1
	if err := o.Par.Err(); err != nil {
		return nil, rep, err
	}
	runners := o.Par.Split(restricted)
	binReps := make([]*Report, restricted)
	binErrs := make([]error, restricted)
	var wg sync.WaitGroup
	for b := 0; b < restricted; b++ {
		if len(bucket(b)) == 0 {
			continue
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			bo := o
			bo.Par = runners[b]
			binReps[b], binErrs[b] = solveBin(in, col, part, int32(b), bucket(b), bo, base, depth, true)
		}(b)
	}
	wg.Wait()
	for b := 0; b < restricted; b++ {
		if binErrs[b] != nil {
			return nil, rep, binErrs[b]
		}
	}
	for b := 0; b < restricted; b++ {
		if binReps[b] != nil {
			rep.merge(binReps[b])
		}
	}
	// Catch-all node bin: palettes updated with neighbors' used colors
	// (Algorithm 11 line 3) — sequential, after the restricted barrier.
	if err := o.Par.Err(); err != nil {
		return nil, rep, err
	}
	subRep, err := solveBin(in, col, part, int32(part.Bins-1), bucket(part.Bins-1), o, base, depth, false)
	if err != nil {
		return nil, rep, err
	}
	if subRep != nil {
		rep.merge(subRep)
	}
	// G_mid last (Algorithm 11 lines 4–5).
	if midNodes := bucket(part.Bins); len(midNodes) > 0 {
		ar := d1lc.NewReduceArena()
		sub, origOf := ar.ReducePar(o.Par, in, col, midNodes)
		rep.CopiedNodes += int64(sub.N())
		rep.CopiedArcs += 2 * int64(sub.G.M())
		subCol, err := base(sub)
		if err != nil {
			return nil, rep, err
		}
		rep.BaseInstances++
		rep.BaseNodes += sub.N()
		d1lc.Apply(col, subCol, origOf)
		ar.Release()
	}
	if got := col.UncoloredCount(); got != 0 {
		return nil, rep, fmt.Errorf("sparsify: %d nodes left uncolored", got)
	}
	return col, rep, nil
}

// solveBin extracts one bin's instance and recurses, returning the
// sub-solve's report (with this extraction's copy counters folded in) for
// the caller to merge in bin-index order. For restricted bins the palette
// is the bin's color class (colors of other classes cannot conflict
// because neighbors in other restricted bins use other classes); the
// catch-all bin and any safety cases use full self-reduction against
// colors already committed. Pooled arenas back the sub-instance, held
// until recursion and write-back complete.
func solveBin(in *d1lc.Instance, col *d1lc.Coloring, part *Partition, bin int32, nodes []int32, o Options, base BaseSolver, depth int, restricted bool) (*Report, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	sp := trace.Begin(o.Trace, "sparsify", "bin", int(bin), len(nodes))
	var sub *d1lc.Instance
	origOf := nodes
	var ra *restrictedArena
	var da *d1lc.ReduceArena
	if restricted {
		ra = restrictedArenas.Get().(*restrictedArena)
		sub = ra.build(o.Par, in, part, nodes)
		// The partition guarantees d′(v) < p′(v) (property enforcement
		// moved violators to G_mid), so sub is a valid D1LC instance.
		if err := sub.Check(); err != nil {
			sp.End(0, 0, 0)
			return nil, fmt.Errorf("sparsify: bin %d produced invalid instance: %v", bin, err)
		}
	} else {
		da = d1lc.NewReduceArena()
		sub, origOf = da.ReducePar(o.Par, in, col, nodes)
	}
	subCol, subRep, err := colorReduce(sub, o, base, depth-1)
	if err != nil {
		sp.End(0, 0, 0)
		return nil, err
	}
	subRep.CopiedNodes += int64(sub.N())
	subRep.CopiedArcs += 2 * int64(sub.G.M())
	d1lc.Apply(col, subCol, origOf)
	// Write-back done: the sub-instance is dead and its arenas recycle.
	if ra != nil {
		restrictedArenas.Put(ra)
	}
	if da != nil {
		da.Release()
	}
	sp.End(0, len(nodes), 0)
	return subRep, nil
}
