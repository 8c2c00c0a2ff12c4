package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"parcolor"
)

// solverWorkload is one large generated instance solved directly through
// parcolor.Solver by the deterministic algorithm and both baselines.
type solverWorkload struct {
	gen string
	n   int
}

// algorithms are the three solvers every workload runs: the Theorem 1
// deterministic solver and the two shipped randomized baselines.
var algorithms = []parcolor.Algorithm{parcolor.Deterministic, parcolor.JonesPlassmann, parcolor.LubyColoring}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// baselineTime is how long each baseline runs per timed repetition. It is
// short next to a deterministic solve, so that most of a run measures the
// deterministic solves.
const baselineTime = 250 * time.Millisecond

// outcome is what the checks compare between two solves of one instance.
type outcome struct {
	hash   uint64
	colors int
	rounds int
}

// solved is one timed solve.
type solved struct {
	wall     time.Duration // Solver.Solve, including its built-in verification
	peakMB   float64       // live-heap peak during the solve (0 without a poller)
	counters runtimeCounters
	out      outcome
}

// solveOnce runs one solve on a fresh Solver after a GC. The coloring is
// verified again against the instance outside the timed interval. poller
// may be nil; tr, when non-nil, is attached with WithTrace.
func solveOnce(seed uint64, alg parcolor.Algorithm, in *parcolor.Instance, poller *heapPoller, tr parcolor.Tracer) (solved, error) {
	opts := []parcolor.Option{parcolor.WithAlgorithm(alg), parcolor.WithSeed(seed)}
	if tr != nil {
		opts = append(opts, parcolor.WithTrace(tr))
	}
	s, err := parcolor.NewSolver(opts...)
	if err != nil {
		return solved{}, err
	}
	runtime.GC()
	var r solved
	if poller != nil {
		poller.reset()
	}
	before := readRuntimeCounters()
	t := time.Now()
	res, err := s.Solve(context.Background(), in)
	r.wall = time.Since(t)
	r.counters = readRuntimeCounters().sub(before)
	if poller != nil {
		r.peakMB = poller.reset()
	}
	if err != nil {
		return r, err
	}
	if err := parcolor.Verify(in, res.Coloring); err != nil {
		return r, err
	}
	r.out = outcome{hash: hashColors(res.Coloring.Colors), colors: res.DistinctColors, rounds: res.Rounds}
	return r, nil
}

// sameOutcome reports a reproducibility failure: every algorithm here is
// deterministic for a fixed seed, so a repeated solve must match its
// reference bit for bit.
func sameOutcome(ref, got outcome) error {
	if got != ref {
		return fmt.Errorf("coloring not reproducible: got hash %x colors %d rounds %d, reference hash %x colors %d rounds %d",
			got.hash, got.colors, got.rounds, ref.hash, ref.colors, ref.rounds)
	}
	return nil
}

// warmUp solves every instance once with every algorithm, untimed, and
// returns the reference outcomes, indexed [instance][algorithm].
func warmUp(seed uint64, ins []*parcolor.Instance, rep *report) [][]outcome {
	refs := make([][]outcome, len(ins))
	for i, in := range ins {
		refs[i] = make([]outcome, len(algorithms))
		for a, alg := range algorithms {
			r, err := solveOnce(seed, alg, in, nil, nil)
			rep.check(fmt.Sprintf("warm-up %s on instance %d", alg, i), err)
			refs[i][a] = r.out
		}
	}
	return refs
}

func runSolverWorkload(cfg config, w solverWorkload, rep *report) error {
	var in *parcolor.Instance
	var setups []float64
	for range setupReps {
		runtime.GC()
		t := time.Now()
		in = parcolor.TrivialPalettes(parcolor.GenerateGraph(w.gen, w.n, cfg.seed))
		if _, err := parcolor.NewSolver(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	fmt.Fprintf(cfg.log, "bench: %s n=%d m=%d maxdeg=%d\n", w.gen, in.G.N(), in.G.M(), in.G.MaxDegree())
	ins := []*parcolor.Instance{in}
	refs := warmUp(cfg.seed, ins, rep)

	if cfg.trace {
		samples, bases := runLayerReps(cfg, ins, refs, time.Now().Add(cfg.seconds), rep)
		emitLayerMetrics(rep, samples, runProbes(bases))
		emitServeLayerMetrics(rep, servedStats{})
		return nil
	}

	walls := make([][]float64, len(algorithms))
	var peaks []float64
	poller := startHeapPoller()
	defer poller.stop()
	start := time.Now()
	for reps := 0; fits(start, start.Add(cfg.seconds), reps); reps++ {
		for a, alg := range algorithms {
			// The baselines are short next to the deterministic solve, so
			// each repetition repeats them until they have run baselineTime.
			var spent time.Duration
			for k := 0; k == 0 || (alg != parcolor.Deterministic && spent < baselineTime); k++ {
				r, err := solveOnce(cfg.seed, alg, in, poller, nil)
				if err == nil {
					err = sameOutcome(refs[0][a], r.out)
				}
				rep.check(fmt.Sprintf("%s solve", alg), err)
				spent += r.wall
				walls[a] = append(walls[a], r.wall.Seconds())
				if alg == parcolor.Deterministic {
					peaks = append(peaks, r.peakMB)
				}
			}
		}
	}
	det := walls[0]
	fmt.Fprintf(cfg.log, "bench: %d timed repetitions: %d deterministic, %d jp and %d luby solves; %d set-ups\n",
		len(det), len(det), len(walls[1]), len(walls[2]), len(setups))
	ms := make([]float64, len(det))
	total := 0.0
	for i, s := range det {
		ms[i] = s * 1e3
		total += s
	}
	rep.emit("setup_s", "s", median(setups))
	rep.emit("solve_s", "s", median(det))
	rep.emit("jp_solve_s", "s", median(walls[1]))
	rep.emit("luby_solve_s", "s", median(walls[2]))
	rep.emit("peak_heap_mb", "MB", median(peaks))
	rep.emit("colors", "count", float64(refs[0][0].colors))
	rep.emit("rounds", "count", float64(refs[0][0].rounds))
	// Every workload reports every metric. Without a server the request
	// metrics restate the deterministic solves behind solve_s, and
	// -compare shows them without a verdict (see solveAliases).
	rep.emit("latency_p50_ms", "ms", median(ms))
	rep.emitPercentile("latency_p95_ms", 95, ms)
	rep.emit("throughput_rps", "req/s", float64(len(det))/total)
	return nil
}
