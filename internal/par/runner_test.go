package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunnerWorkersBound checks the min(bound, n) ≥ 1 arithmetic for
// explicit runners, independent of the process default.
func TestRunnerWorkersBound(t *testing.T) {
	cases := []struct {
		bound, n, want int
	}{
		{1, 100, 1},
		{3, 100, 3},
		{3, 2, 2},
		{8, 0, 1},
		{0, 1, 1},
	}
	for _, c := range cases {
		r := NewRunner(c.bound)
		if got := r.Workers(c.n); got != c.want {
			t.Errorf("NewRunner(%d).Workers(%d) = %d, want %d", c.bound, c.n, got, c.want)
		}
	}
	if got := NewRunner(-5).Bound(); got != 0 {
		t.Errorf("negative bound not normalized: Bound() = %d", got)
	}
}

// TestConcurrentRunnersHonorOwnBounds: two runners with different bounds
// running concurrently must each cap their own observed parallelism, with
// no cross-contamination. Run under -race this also proves the handles
// share no mutable state.
func TestConcurrentRunnersHonorOwnBounds(t *testing.T) {
	const iters = 50
	probe := func(r *Runner, bound int) {
		var inflight, peak atomic.Int64
		for it := 0; it < iters; it++ {
			r.ForChunkedWorker(256, func(_, lo, hi int) {
				cur := inflight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				s := 0
				for i := lo; i < hi; i++ {
					s += i
				}
				_ = s
				inflight.Add(-1)
			})
		}
		if p := peak.Load(); p > int64(bound) {
			t.Errorf("runner with bound %d observed %d concurrent workers", bound, p)
		}
	}
	var wg sync.WaitGroup
	for _, bound := range []int{1, 2, 4} {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			probe(NewRunner(b), b)
		}(bound)
	}
	wg.Wait()
}

// TestRunnerDeterministicAcrossBounds pins reductions to the sequential
// result for every bound.
func TestRunnerDeterministicAcrossBounds(t *testing.T) {
	n := 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i*2654435761)%1000) - 500
	}
	var wantSum int64
	for _, v := range vals {
		wantSum += v
	}
	for _, bound := range []int{1, 2, 3, 7, 64} {
		r := NewRunner(bound)
		if got := r.ReduceInt(n, func(i int) int64 { return vals[i] }); got != wantSum {
			t.Errorf("bound %d: ReduceInt = %d, want %d", bound, got, wantSum)
		}
		if got := r.ReduceChunked(n, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}); got != wantSum {
			t.Errorf("bound %d: ReduceChunked = %d, want %d", bound, got, wantSum)
		}
	}
}

// TestRunnerContext checks the Err plumbing of an attached context,
// including the nil-runner and nil-context defaults.
func TestRunnerContext(t *testing.T) {
	var nilR *Runner
	if err := nilR.Err(); err != nil {
		t.Fatalf("nil runner Err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(2).WithContext(ctx)
	if r.Err() != nil {
		t.Fatalf("live context Err = %v", r.Err())
	}
	if r.Bound() != 2 {
		t.Fatalf("WithContext dropped the bound: %d", r.Bound())
	}
	cancel()
	if r.Err() != context.Canceled {
		t.Fatalf("cancelled Err = %v, want context.Canceled", r.Err())
	}
	// Deriving from nil keeps the default bound.
	r2 := nilR.WithContext(ctx)
	if r2.Bound() != 0 || r2.Err() != context.Canceled {
		t.Fatalf("nil.WithContext: bound %d err %v", r2.Bound(), r2.Err())
	}
}

// TestRunnerSplit checks that Split conserves the parent's budget (when it
// is at least the fan-out), floors every child at one worker, and threads
// the parent's context into each child.
func TestRunnerSplit(t *testing.T) {
	cases := []struct {
		bound, k int
		want     []int
	}{
		{8, 3, []int{3, 3, 2}},
		{4, 4, []int{1, 1, 1, 1}},
		{2, 5, []int{1, 1, 1, 1, 1}}, // oversubscribed: floor of 1 each
		{7, 2, []int{4, 3}},
		{1, 1, []int{1}},
	}
	for _, c := range cases {
		kids := NewRunner(c.bound).Split(c.k)
		if len(kids) != len(c.want) {
			t.Fatalf("Split(%d) with bound %d: %d children, want %d", c.k, c.bound, len(kids), len(c.want))
		}
		for i, kid := range kids {
			if kid.Bound() != c.want[i] {
				t.Errorf("bound %d Split(%d)[%d].Bound() = %d, want %d", c.bound, c.k, i, kid.Bound(), c.want[i])
			}
		}
	}
	if kids := NewRunner(6).Split(0); len(kids) != 1 || kids[0].Bound() != 6 {
		t.Errorf("Split(0) should clamp to one child with the full budget")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, kid := range NewRunner(4).WithContext(ctx).Split(3) {
		if kid.Err() != context.Canceled {
			t.Errorf("child %d did not inherit the cancelled context: %v", i, kid.Err())
		}
	}
	// A nil runner splits its default budget without panicking.
	var nilR *Runner
	if kids := nilR.Split(2); len(kids) != 2 {
		t.Errorf("nil runner Split(2) returned %d children", len(kids))
	}
}

// TestRunnerForRanges pins the range executor: every index in every
// half-open range is visited exactly once, empty ranges are skipped, and
// the result is identical across worker bounds (ranges own disjoint data).
func TestRunnerForRanges(t *testing.T) {
	offsets := []int32{0, 5, 5, 17, 40, 41, 100}
	n := int(offsets[len(offsets)-1])
	for _, bound := range []int{1, 2, 4, 16} {
		visits := make([]int32, n)
		var calls atomic.Int64
		NewRunner(bound).ForRanges(offsets, func(lo, hi int) {
			calls.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("bound %d: index %d visited %d times", bound, i, v)
			}
		}
		// 6 ranges, one empty (5..5): body must run once per non-empty range.
		if c := calls.Load(); c != 5 {
			t.Errorf("bound %d: body ran %d times, want 5", bound, c)
		}
	}
	// Degenerate offsets are no-ops.
	NewRunner(4).ForRanges(nil, func(lo, hi int) { t.Error("body ran for nil offsets") })
	NewRunner(4).ForRanges([]int32{7}, func(lo, hi int) { t.Error("body ran for single offset") })
}
