package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"parcolor"
	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
	"parcolor/internal/deframe"
	"parcolor/internal/graph"
	"parcolor/internal/greedy"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/params"
	"parcolor/internal/sparsify"
	"parcolor/internal/trace"
)

// recorder is an in-memory trace.Tracer that keeps every span with its
// wall-clock interval, and opts into the spans' memory sampling.
type recorder struct {
	mu    sync.Mutex
	spans []recordedSpan
}

type recordedSpan struct {
	ev       trace.Event
	interval interval
}

func (r *recorder) PhaseEnter(trace.Event) {}

func (r *recorder) PhaseExit(e trace.Event) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, recordedSpan{ev: e, interval: interval{end.Add(-e.Elapsed), end}})
	r.mu.Unlock()
}

// TrackMemory turns on the HeapBytes sample at every span's exit.
func (r *recorder) TrackMemory() bool { return true }

// layerSample is one repetition of the per-layer measurements, summed
// over the workload's layer instances.
type layerSample struct {
	untraced time.Duration   // deterministic Solver.Solve walls
	counters runtimeCounters // runtime deltas over those solves

	traced  time.Duration // composed pipeline wall, minus the benchmark's own copies
	covered time.Duration // part of traced inside a leaf span or a timed probe

	sparsifySelf  time.Duration // ColorReduce wall outside base calls and copies
	partition     time.Duration
	hashSeeds     int
	copiedNodes   int64
	copiedArcs    int64
	baseInstances int
	sparsifyPeak  int64 // bytes

	deframeRun   time.Duration // sum of base-call walls
	calls        int
	maxCall      time.Duration
	step         time.Duration
	residue      time.Duration
	seedEvals    int
	participants int
	colored      int
	work         float64 // Σ over steps of seed evaluations × participants
	edges        int
	deframePeak  int64 // bytes

	verify, distinct time.Duration

	jpRound, lubyMIS    time.Duration
	jpRounds, lubyRound int
}

// tracedSolve colors in through the deterministic pipeline composed the
// way parcolor.Solver composes it — sparsify.ColorReduce over deframe.Run,
// with the same options — but with every base call timed, every span
// recorded, and each base instance copied for the probes. It adds the
// measurements to s and returns the coloring and the copied base
// instances.
func tracedSolve(in *d1lc.Instance, s *layerSample) (*d1lc.Coloring, []*d1lc.Instance, error) {
	ctx := context.Background()
	rec := &recorder{}
	run := par.NewRunner(0)
	dopt := deframe.Options{Par: run, Trace: rec, Cache: deframe.NewCache(), MemoGraph: in.G}
	var (
		mu           sync.Mutex
		calls, extra []interval
		bases        []*d1lc.Instance
	)
	base := func(sub *d1lc.Instance) (*d1lc.Coloring, error) {
		// Sub-instances live in arenas that sparsify recycles after the
		// write-back, so the probes need copies; the root is immutable.
		kept := sub
		if sub != in {
			c0 := time.Now()
			kept = cloneInstance(sub)
			c1 := time.Now()
			mu.Lock()
			extra = append(extra, interval{c0, c1})
			mu.Unlock()
		}
		t0 := time.Now()
		col, _, err := deframe.Run(ctx, sub, dopt)
		t1 := time.Now()
		mu.Lock()
		calls = append(calls, interval{t0, t1})
		bases = append(bases, kept)
		mu.Unlock()
		return col, err
	}

	start := time.Now()
	if err := in.Check(); err != nil {
		return nil, nil, err
	}
	r0 := time.Now()
	col, srep, err := sparsify.ColorReduce(ctx, in, sparsify.Options{Par: run, Trace: rec}, base)
	r1 := time.Now()
	if err != nil {
		return nil, nil, err
	}
	if err := d1lc.Verify(in, col); err != nil {
		return nil, nil, fmt.Errorf("composed pipeline produced an invalid coloring: %w", err)
	}
	v1 := time.Now()
	greedy.DistinctColors(col)
	end := time.Now()

	copies := unionLength(extra)
	s.traced += end.Sub(start) - copies
	s.sparsifySelf += r1.Sub(r0) - unionLength(slices.Concat(calls, extra))
	s.verify += v1.Sub(r1)
	s.distinct += end.Sub(v1)
	s.copiedNodes += srep.CopiedNodes
	s.copiedArcs += srep.CopiedArcs
	s.baseInstances += srep.BaseInstances
	s.edges += in.G.M()
	for _, c := range calls {
		d := c.end.Sub(c.start)
		s.deframeRun += d
		s.maxCall = max(s.maxCall, d)
	}
	s.calls += len(calls)

	leaves := []interval{{r1, v1}, {v1, end}}
	for _, sp := range rec.spans {
		e := sp.ev
		switch {
		case e.Engine == "sparsify":
			s.sparsifyPeak = max(s.sparsifyPeak, e.HeapBytes)
			if e.Phase == "partition" {
				s.partition += e.Elapsed
				s.hashSeeds += e.SeedEvals
				leaves = append(leaves, sp.interval)
			}
		case e.Engine == "deframe":
			s.deframePeak = max(s.deframePeak, e.HeapBytes)
			leaves = append(leaves, sp.interval)
			if e.Phase == "greedy-residue" {
				s.residue += e.Elapsed
				continue
			}
			s.step += e.Elapsed
			s.seedEvals += e.SeedEvals
			s.participants += e.Participants
			s.colored += e.Colored
			s.work += float64(e.SeedEvals) * float64(e.Participants)
		}
	}
	s.covered += unionLength(leaves)
	return col, bases, nil
}

// cloneInstance deep-copies an instance: its CSR and its palettes.
func cloneInstance(in *d1lc.Instance) *d1lc.Instance {
	n := in.G.N()
	all := make([]int32, n)
	total := 0
	for v := range all {
		all[v] = int32(v)
		total += len(in.Palettes[v])
	}
	g, _ := graph.InducedSubgraph(in.G, all)
	slab := make([]int32, 0, total)
	pals := make([][]int32, n)
	for v, p := range in.Palettes {
		at := len(slab)
		slab = append(slab, p...)
		pals[v] = slab[at:len(slab):len(slab)]
	}
	return &d1lc.Instance{G: g, Palettes: pals}
}

// spanTotal sums the wall of one engine's spans.
func spanTotal(rec *recorder, engine string) time.Duration {
	var d time.Duration
	for _, sp := range rec.spans {
		if sp.ev.Engine == engine {
			d += sp.ev.Elapsed
		}
	}
	return d
}

// runLayerReps repeats the per-layer measurements over ins until the
// deadline (at least once): an untraced deterministic solve, the traced
// composed pipeline, and traced solves by both baselines. refs are the
// warm-up outcomes every solve must reproduce. It returns one sample per
// repetition and the base instances of the last one.
func runLayerReps(cfg config, ins []*parcolor.Instance, refs [][]outcome, deadline time.Time, rep *report) ([]layerSample, []*d1lc.Instance) {
	var samples []layerSample
	var bases []*d1lc.Instance
	start := time.Now()
	for fits(start, deadline, len(samples)) {
		var s layerSample
		bases = bases[:0]
		for i, in := range ins {
			r, err := solveOnce(cfg.seed, parcolor.Deterministic, in, nil, nil)
			if err == nil {
				err = sameOutcome(refs[i][0], r.out)
			}
			rep.check("untraced deterministic solve", err)
			s.untraced += r.wall
			s.counters = s.counters.add(r.counters)

			runtime.GC()
			col, b, err := tracedSolve(in, &s)
			if err == nil && hashColors(col.Colors) != refs[i][0].hash {
				err = fmt.Errorf("composed pipeline coloring differs from Solver.Solve's")
			}
			rep.check("traced deterministic pipeline", err)
			bases = append(bases, b...)

			for a, alg := range algorithms[1:] {
				rec := &recorder{}
				r, err := solveOnce(cfg.seed, alg, in, nil, rec)
				if err == nil {
					err = sameOutcome(refs[i][a+1], r.out)
				}
				rep.check(fmt.Sprintf("traced %s solve", alg), err)
				spans := spanTotal(rec, baselineEngine[alg])
				if alg == parcolor.JonesPlassmann {
					s.jpRound += spans
					s.jpRounds += r.out.rounds
				} else {
					s.lubyMIS += spans
					s.lubyRound += r.out.rounds
				}
			}
		}
		samples = append(samples, s)
	}
	fmt.Fprintf(cfg.log, "bench: %d layer repetitions over %d instances, %d base instances probed\n", len(samples), len(ins), len(bases))
	return samples, bases
}

// probeTimes are the one-off probes of the schedule-building layers.
type probeTimes struct{ hknt, acd, params time.Duration }

// runProbes times hknt.BuildColorMiddle, acd.ComputePar and
// params.ComputePar on each base instance, with the tunables deframe.Run
// uses (the defaults). The three nest: the build runs the decomposition,
// which computes the parameters.
func runProbes(bases []*d1lc.Instance) probeTimes {
	var p probeTimes
	r := par.NewRunner(0)
	for _, in := range bases {
		t := time.Now()
		params.ComputePar(r, in)
		p.params += time.Since(t)

		tun := hknt.Tunables{}.WithDefaults(in.G.N(), in.G.MaxDegree())
		t = time.Now()
		acd.ComputePar(r, in, tun.ACD)
		p.acd += time.Since(t)

		st := hknt.NewState(in)
		st.Par = r
		t = time.Now()
		hknt.BuildColorMiddle(st, hknt.Tunables{})
		p.hknt += time.Since(t)
	}
	return p
}

// emitLayerMetrics reports the solver-layer metrics: times as medians
// over the repetitions, counts (identical in every repetition of a
// deterministic solve) from the first.
func emitLayerMetrics(rep *report, samples []layerSample, probes probeTimes) {
	med := func(f func(s layerSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	sec := func(f func(s layerSample) time.Duration) float64 {
		return med(func(s layerSample) float64 { return f(s).Seconds() })
	}
	first := samples[0]
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rep.emit("sparsify.self_s", "s", sec(func(s layerSample) time.Duration { return s.sparsifySelf }))
	rep.emit("sparsify.partition_s", "s", sec(func(s layerSample) time.Duration { return s.partition }))
	rep.emit("sparsify.hash_seeds", "count", float64(first.hashSeeds))
	rep.emit("sparsify.copied_nodes", "count", float64(first.copiedNodes))
	rep.emit("sparsify.copied_arcs", "count", float64(first.copiedArcs))
	rep.emit("sparsify.base_instances", "count", float64(first.baseInstances))
	rep.emit("sparsify.peak_heap_mb", "MB", med(func(s layerSample) float64 { return float64(s.sparsifyPeak) / mb }))

	rep.emit("deframe.run_s", "s", sec(func(s layerSample) time.Duration { return s.deframeRun }))
	rep.emit("deframe.calls", "count", float64(first.calls))
	rep.emit("deframe.max_call_s", "s", sec(func(s layerSample) time.Duration { return s.maxCall }))
	rep.emit("deframe.step_s", "s", sec(func(s layerSample) time.Duration { return s.step }))
	rep.emit("deframe.seed_evals", "count", float64(first.seedEvals))
	rep.emit("deframe.participants", "count", float64(first.participants))
	rep.emit("deframe.colored_frac", "ratio", ratio(float64(first.colored), float64(first.participants)))
	rep.emit("deframe.work_ratio", "ratio", ratio(first.work, float64(first.edges)))
	rep.emit("deframe.greedy_residue_s", "s", sec(func(s layerSample) time.Duration { return s.residue }))
	rep.emit("deframe.other_s", "s", sec(func(s layerSample) time.Duration { return s.deframeRun - s.step - s.residue }))
	rep.emit("deframe.peak_heap_mb", "MB", med(func(s layerSample) float64 { return float64(s.deframePeak) / mb }))

	rep.emit("hknt.build_s", "s", probes.hknt.Seconds())
	rep.emit("acd.compute_s", "s", probes.acd.Seconds())
	rep.emit("params.compute_s", "s", probes.params.Seconds())
	rep.emit("d1lc.verify_s", "s", sec(func(s layerSample) time.Duration { return s.verify }))
	rep.emit("greedy.distinct_s", "s", sec(func(s layerSample) time.Duration { return s.distinct }))

	rep.emit("jp.round_s", "s", sec(func(s layerSample) time.Duration { return s.jpRound }))
	rep.emit("jp.rounds", "count", float64(first.jpRounds))
	rep.emit("luby.mis_s", "s", sec(func(s layerSample) time.Duration { return s.lubyMIS }))
	rep.emit("luby.rounds", "count", float64(first.lubyRound))

	rep.emit("runtime.cpu_s", "s", sec(func(s layerSample) time.Duration { return s.counters.cpu }))
	rep.emit("runtime.alloc_mb", "MB", med(func(s layerSample) float64 { return float64(s.counters.allocs) / mb }))
	rep.emit("runtime.gc_cpu_s", "s", med(func(s layerSample) float64 { return s.counters.gcCPU }))
	rep.emit("runtime.gc_cycles", "count", med(func(s layerSample) float64 { return float64(s.counters.gcCycles) }))

	traced := sec(func(s layerSample) time.Duration { return s.traced })
	untraced := sec(func(s layerSample) time.Duration { return s.untraced })
	rep.emit("trace.overhead_frac", "ratio", ratio(traced, untraced)-1)
	rep.emit("trace.untraced_frac", "ratio", 1-med(func(s layerSample) float64 {
		return ratio(float64(s.covered), float64(s.traced))
	}))
}
