package parcolor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// mustSolver builds a Solver or fails the test.
func mustSolver(t *testing.T, opts ...Option) *Solver {
	t.Helper()
	s, err := NewSolver(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameColoring(t *testing.T, a, b *Coloring, label string) {
	t.Helper()
	if len(a.Colors) != len(b.Colors) {
		t.Fatalf("%s: coloring sizes differ", label)
	}
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatalf("%s: colorings diverge at node %d: %d vs %d", label, v, a.Colors[v], b.Colors[v])
		}
	}
}

func TestNewSolverValidatesOnce(t *testing.T) {
	bad := []struct {
		name string
		opts []Option
	}{
		{"seedbits too big", []Option{WithSeedBits(30)}},
		{"negative seedbits", []Option{WithSeedBits(-1)}},
		{"one bin", []Option{WithBins(1)}},
		{"bad algorithm", []Option{WithAlgorithm(Algorithm(99))}},
	}
	for _, tc := range bad {
		if _, err := NewSolver(tc.opts...); err == nil {
			t.Errorf("%s: NewSolver accepted invalid configuration", tc.name)
		}
	}
	s := mustSolver(t, WithWorkers(3), WithSeedBits(6), WithBitwise(true))
	if c := s.cfg; c.workers != 3 || c.seedBits != 6 || !c.bitwise {
		t.Fatalf("options not captured: %+v", c)
	}
	// A non-positive worker bound means the process default, not an error.
	mustSolver(t, WithWorkers(-1))
}

// TestConcurrentSolversHonorOwnWorkerBounds checks that two Solves running
// concurrently with different Workers values each honor their own bound
// — nothing global is mutated — and produce exactly the sequential results. Run
// under -race this also proves the harnesses share no unsynchronized
// state.
func TestConcurrentSolversHonorOwnWorkerBounds(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 220, 3))
	ref, err := solve(in, WithSeedBits(6))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	var wg sync.WaitGroup
	for _, workers := range []int{1, 4} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := NewSolver(WithWorkers(w), WithSeedBits(6))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				res, err := s.Solve(context.Background(), in)
				if err != nil {
					t.Errorf("workers=%d: %v", w, err)
					return
				}
				for v := range res.Coloring.Colors {
					if res.Coloring.Colors[v] != ref.Coloring.Colors[v] {
						t.Errorf("workers=%d: coloring diverged at node %d", w, v)
						return
					}
				}
			}
		}(workers)
	}
	wg.Wait()
}

// waitGoroutinesBack polls until the goroutine count returns near the
// baseline, proving cancelled solves leave no workers behind.
func waitGoroutinesBack(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d > baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationAllAlgorithms checks that a context cancelled before the
// solve starts returns ctx.Err() from every algorithm — deterministic,
// lowdeg, MIS and MPC — without panics or goroutine leaks.
func TestCancellationAllAlgorithms(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 300, 2))
	g := GenerateGraph("gnp-sparse", 300, 2)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, alg := range []Algorithm{Deterministic, LowDegreeDeterministic, Randomized} {
		s := mustSolver(t, WithAlgorithm(alg), WithSeedBits(6))
		if _, err := s.Solve(ctx, in); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", alg, err)
		}
	}
	s := mustSolver(t)
	if _, err := s.MIS(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("MIS: err = %v, want context.Canceled", err)
	}
	if _, err := s.SolveOnMPC(ctx, in, 0, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("SolveOnMPC: err = %v, want context.Canceled", err)
	}
	waitGoroutinesBack(t, baseline)
}

// TestCancellationMidSolve cancels mid-derandomization and checks both the
// returned error and that no goroutines linger.
func TestCancellationMidSolve(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("gnp-dense", 800, 2))
	baseline := runtime.NumGoroutine()
	for _, alg := range []Algorithm{Deterministic, LowDegreeDeterministic} {
		s := mustSolver(t, WithAlgorithm(alg))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, err := s.Solve(ctx, in)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", alg, err)
		}
	}
	waitGoroutinesBack(t, baseline)
}

// TestCancellationAbortsDeterministicN3000 is the acceptance criterion:
// cancelling a deterministic n=3000 solve must abort well under the
// uncancelled runtime. The margin (uncancelled/2 with a 50ms deadline,
// where uncancelled is hundreds of ms to seconds) is wide enough not to
// flake on slow CI hosts.
func TestCancellationAbortsDeterministicN3000(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3000 solve in -short mode")
	}
	in := TrivialPalettes(GenerateGraph("gnp-dense", 3000, 1))
	s := mustSolver(t)

	start := time.Now()
	if _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	uncancelled := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := s.Solve(ctx, in)
	aborted := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if aborted >= uncancelled/2 {
		t.Fatalf("cancellation not prompt: aborted in %v, uncancelled %v", aborted, uncancelled)
	}
	t.Logf("uncancelled %v, aborted in %v", uncancelled, aborted)
}

// TestSolverReuseFewerAllocsAndBitIdentical checks what a warm Solver
// still saves: repeated Solver.Solve calls on the same instance must
// allocate measurably less than a freshly constructed Solver after
// warm-up, and stay bit-identical to it. The engines' pools are
// package-level, so both sides draw warm scratch from them; the warm
// Solver's saving is its chunk memo.
func TestSolverReuseFewerAllocsAndBitIdentical(t *testing.T) {
	in := TrivialPalettes(GenerateGraph("mixed", 260, 5))
	oneShot, err := solve(in, WithSeedBits(6))
	if err != nil {
		t.Fatal(err)
	}

	s := mustSolver(t, WithSeedBits(6))
	ctx := context.Background()
	// Warm the pools.
	for i := 0; i < 2; i++ {
		warm, err := s.Solve(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		sameColoring(t, warm.Coloring, oneShot.Coloring, "warm vs one-shot")
	}

	bytesWarm := allocBytesPerRun(3, func() {
		if _, err := s.Solve(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	bytesOneShot := allocBytesPerRun(3, func() {
		if _, err := solve(in, WithSeedBits(6)); err != nil {
			t.Fatal(err)
		}
	})
	// "Measurably less": the warm path skips the power-graph chunk
	// assignment, the largest allocation a fresh Solver makes once the
	// package pools are warm. The gate is on bytes, not allocation
	// counts: both paths make a similar *number* of small allocations,
	// but the fresh Solver still builds and colors the power graph. Gate
	// at 90% to stay far from both the real ratio and noise.
	if bytesWarm >= uint64(0.9*float64(bytesOneShot)) {
		t.Fatalf("warm solver does not allocate measurably less: warm %d bytes vs one-shot %d bytes", bytesWarm, bytesOneShot)
	}
	t.Logf("alloc bytes/solve: warm %d vs one-shot %d", bytesWarm, bytesOneShot)
}

// TestSolverReuseAcrossInstances solves three instances of different
// sizes on one Solver in interleaved order and compares every coloring
// with a fresh Solver's. The package pools hand seed-evaluation scratch
// from one solve to the next, and a Scratch resets only what its previous
// trial wrote, so an entry left stale by a solve of another size would
// show here.
func TestSolverReuseAcrossInstances(t *testing.T) {
	ins := []*Instance{
		TrivialPalettes(GenerateGraph("mixed", 260, 5)),
		TrivialPalettes(GenerateGraph("gnp-dense", 800, 2)),
		TrivialPalettes(GenerateGraph("chunglu", 3000, 3)),
	}
	want := make([]*Coloring, len(ins))
	for i, in := range ins {
		res, err := solve(in, WithSeedBits(6))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Coloring
	}
	s := mustSolver(t, WithSeedBits(6))
	for _, i := range []int{0, 2, 1, 0, 1, 2, 0} {
		res, err := s.Solve(context.Background(), ins[i])
		if err != nil {
			t.Fatal(err)
		}
		sameColoring(t, res.Coloring, want[i], fmt.Sprintf("instance %d on a shared Solver", i))
	}
}

// TestConcurrentSolversReusePools runs two Solvers with different worker
// bounds concurrently, each solving instances of two sizes in turn. Both
// draw scratch, tables, run states and reduction arenas from the same
// package pools, so a buffer left stale by the other Solver's solve of
// another size, or held by both at once, would show as a coloring that
// differs from the sequential reference (or, under -race, as a race).
func TestConcurrentSolversReusePools(t *testing.T) {
	ins := []*Instance{
		TrivialPalettes(GenerateGraph("mixed", 260, 5)),
		TrivialPalettes(GenerateGraph("chunglu", 3000, 3)),
	}
	want := make([]*Coloring, len(ins))
	for i, in := range ins {
		res, err := solve(in, WithSeedBits(6))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Coloring
	}
	var wg sync.WaitGroup
	for _, workers := range []int{1, 4} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := NewSolver(WithWorkers(w), WithSeedBits(6))
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < 4; k++ {
				i := (k + w) % len(ins)
				res, err := s.Solve(context.Background(), ins[i])
				if err != nil {
					t.Errorf("workers=%d: %v", w, err)
					return
				}
				if !slices.Equal(res.Coloring.Colors, want[i].Colors) {
					t.Errorf("workers=%d: instance %d diverges from its sequential reference", w, i)
					return
				}
			}
		}(workers)
	}
	wg.Wait()
}

// allocBytesPerRun is testing.AllocsPerRun's byte-counting sibling:
// average heap bytes allocated per invocation of fn, measured on a
// single-goroutine run like AllocsPerRun does.
func allocBytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm-up, not counted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestTraceObservesDeframePhases pins the Tracer contract: a deterministic
// solve emits deframe step phases with participant and seed-evaluation
// counts.
func TestTraceObservesDeframePhases(t *testing.T) {
	collector := NewTraceCollector()
	s := mustSolver(t, WithSeedBits(6), WithTrace(collector))
	in := TrivialPalettes(GenerateGraph("mixed", 800, 4))
	if _, err := s.Solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	sums := collector.Summary()
	var deframePhases, evals int
	for _, ps := range sums {
		if ps.Engine == "deframe" {
			deframePhases++
			evals += ps.SeedEvals
		}
	}
	if deframePhases == 0 {
		t.Fatalf("no deframe phases observed; got %+v", sums)
	}
	if evals == 0 {
		t.Fatal("no seed evaluations recorded in deframe phases")
	}
}

// TestNilInputsReturnErrors checks that every entry point answers a nil
// instance, an instance without a graph, and a nil graph with an error
// instead of a panic.
func TestNilInputsReturnErrors(t *testing.T) {
	s := mustSolver(t)
	ctx := context.Background()
	entries := []struct {
		name string
		call func(in *Instance) error
	}{
		{"Solve", func(in *Instance) error {
			_, err := s.Solve(ctx, in)
			return err
		}},
		{"SolveOnMPC", func(in *Instance) error {
			_, err := s.SolveOnMPC(ctx, in, 0, 4)
			return err
		}},
		{"MIS", func(in *Instance) error {
			var g *Graph
			if in != nil {
				g = in.G
			}
			_, err := s.MIS(ctx, g)
			return err
		}},
	}
	for _, e := range entries {
		for _, bad := range []struct {
			name string
			in   *Instance
		}{
			{"nil instance", nil},
			{"nil graph", &Instance{Palettes: [][]int32{{0}}}},
		} {
			if err := e.call(bad.in); err == nil {
				t.Errorf("%s(%s): no error", e.name, bad.name)
			}
		}
	}
}
