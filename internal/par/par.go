// Package par provides small deterministic parallel-loop primitives built on
// goroutine worker pools.
//
// Go has no parallel-for construct in the standard library; every
// data-parallel phase of this repository (per-node parameter computation,
// PRG seed scoring, MPC machine steps, partition evaluation) is expressed
// through this package so that the degree of parallelism is controlled in
// one place and results never depend on scheduling order.
//
// Parallelism is scoped through Runner: an explicit handle bundling a
// worker bound with an optional cancellation context, threaded by value
// through the solve path (parcolor.Solver → deframe/mis/lowdeg/mpc/
// sparsify → condexp/hknt) so that two concurrent solves with different
// budgets never observe each other's bound. Leaf helpers (graph builders,
// bitset word fills) that have no per-solve budget use a nil Runner.
//
// All functions are deterministic in their observable results: work is
// partitioned into contiguous index chunks, each chunk writes only to its
// own output range, and reductions combine per-chunk partials in index
// order. The worker bound and cancellation never change *what* a completed
// loop computes, only how many goroutines compute it.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner is a scoped parallelism handle: a worker bound plus an optional
// cancellation context. A nil *Runner is valid everywhere and means
// GOMAXPROCS workers and no cancellation. Runners are immutable after construction and safe for
// concurrent use; two Runners never share mutable state, which is what
// lets concurrent solves honor distinct bounds.
type Runner struct {
	workers int
	ctx     context.Context
}

// NewRunner returns a Runner bounded to at most workers goroutines per
// parallel loop. workers <= 0 means GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers < 0 {
		workers = 0
	}
	return &Runner{workers: workers}
}

// WithContext returns a Runner with the same worker bound whose loops and
// Err observe ctx. The receiver may be nil (default bound). ctx == nil
// clears cancellation.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	nr := &Runner{ctx: ctx}
	if r != nil {
		nr.workers = r.workers
	}
	return nr
}

// Bound reports the configured worker bound (0 = GOMAXPROCS).
func (r *Runner) Bound() int {
	if r == nil {
		return 0
	}
	return r.workers
}

// Err reports the runner's cancellation state: the context's error, or nil
// when no context is attached. Long-running loops (seed walks, round
// drivers, recursions) poll it at iteration boundaries and return it
// promptly, leaving no partially-applied state behind.
func (r *Runner) Err() error {
	if r == nil || r.ctx == nil {
		return nil
	}
	return r.ctx.Err()
}

// Workers reports the number of workers a parallel loop over n items will
// use: min(bound, n), at least 1.
func (r *Runner) Workers(n int) int {
	w := r.Bound()
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs body(i) for every i in [0, n), distributing contiguous chunks of
// the index space across the runner's workers. body must not panic; it may
// write only to data owned by index i (or otherwise non-overlapping per
// index).
func (r *Runner) For(n int, body func(i int)) {
	r.ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked runs body(lo, hi) over a partition of [0, n) into one
// contiguous half-open chunk per worker.
func (r *Runner) ForChunked(n int, body func(lo, hi int)) {
	r.ForChunkedWorker(n, func(_, lo, hi int) { body(lo, hi) })
}

// ForChunkedWorker is ForChunked with the worker index exposed: body runs
// with w ∈ [0, Workers(n)) identifying the goroutine's slot, so callers can
// reuse per-worker scratch (size it with Workers(n)). Chunk boundaries are
// the same deterministic partition ForChunked uses.
func (r *Runner) ForChunkedWorker(n int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := r.Workers(n)
	if w == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		lo := k * n / w
		hi := (k + 1) * n / w
		go func(k, lo, hi int) {
			defer wg.Done()
			if lo < hi {
				body(k, lo, hi)
			}
		}(k, lo, hi)
	}
	wg.Wait()
}

// Split partitions the runner's worker budget across k concurrent tasks:
// it returns k runners sharing the receiver's context whose bounds sum to
// the receiver's effective bound whenever that bound is at least k (each
// child always gets at least one worker, so oversubscription is capped at
// k-1 extra goroutines when the budget is smaller than the fan-out). The
// sparsify bin scheduler uses it to solve restricted bins concurrently
// without the nested parallel loops overshooting the solve's budget.
// Children are plain Runners — immutable, safe for concurrent use.
func (r *Runner) Split(k int) []*Runner {
	if k < 1 {
		k = 1
	}
	w := r.Bound()
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var ctx context.Context
	if r != nil {
		ctx = r.ctx
	}
	out := make([]*Runner, k)
	base, extra := w/k, w%k
	for i := range out {
		share := base
		if i < extra {
			share++
		}
		if share < 1 {
			share = 1
		}
		out[i] = &Runner{workers: share, ctx: ctx}
	}
	return out
}

// ForRanges runs body over the half-open ranges offsets[i]..offsets[i+1],
// handing each range to a worker as one indivisible work unit — the
// shard-aware counterpart of ForChunked: a degree-sharded instance hands
// whole cache-resident shards to workers instead of arbitrary contiguous
// index splits. Ranges are claimed dynamically (an atomic cursor), so a
// heavy shard does not serialize the light ones behind it; body must
// write only to data owned by its range, which keeps the result
// deterministic under any claim order. Empty ranges are skipped.
func (r *Runner) ForRanges(offsets []int32, body func(lo, hi int)) {
	k := len(offsets) - 1
	if k <= 0 {
		return
	}
	w := r.Workers(k)
	if w == 1 {
		for i := 0; i < k; i++ {
			if offsets[i] < offsets[i+1] {
				body(int(offsets[i]), int(offsets[i+1]))
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				if offsets[i] < offsets[i+1] {
					body(int(offsets[i]), int(offsets[i+1]))
				}
			}
		}()
	}
	wg.Wait()
}

// partialPool recycles the per-call partial vectors of ReduceChunked so a
// hot selection loop performs no steady-state allocation.
var partialPool = sync.Pool{New: func() any {
	s := make([]int64, 0, 128)
	return &s
}}

// ReduceChunked folds body over [0, n) at chunk granularity: body(lo, hi)
// returns the partial for one contiguous chunk, and partials are summed in
// chunk order, so the result equals the sequential sum regardless of worker
// count.
func (r *Runner) ReduceChunked(n int, body func(lo, hi int) int64) int64 {
	if n <= 0 {
		return 0
	}
	w := r.Workers(n)
	if w == 1 {
		return body(0, n)
	}
	pp := partialPool.Get().(*[]int64)
	partial := (*pp)[:0]
	for k := 0; k < w; k++ {
		partial = append(partial, 0)
	}
	r.ForChunkedWorker(n, func(k, lo, hi int) {
		partial[k] = body(lo, hi)
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	*pp = partial
	partialPool.Put(pp)
	return total
}

// ReduceInt folds body over [0, n): each worker accumulates a chunk-local
// int64 starting from zero, and the partials are summed in chunk order, so
// the result equals the sequential sum regardless of worker count.
func (r *Runner) ReduceInt(n int, body func(i int) int64) int64 {
	return r.ReduceChunked(n, func(lo, hi int) int64 {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += body(i)
		}
		return acc
	})
}

// ReduceMin returns the minimum of body(i) over [0, n) together with the
// smallest index attaining it. It is the deterministic argmin used by the
// method of conditional expectations (ties break toward the smaller index,
// independent of worker count). n must be positive.
func (r *Runner) ReduceMin(n int, body func(i int) int64) (min int64, argmin int) {
	if n <= 0 {
		panic("par.ReduceMin: n must be positive")
	}
	w := r.Workers(n)
	mins := make([]int64, w)
	args := make([]int, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		lo := k * n / w
		hi := (k + 1) * n / w
		go func(k, lo, hi int) {
			defer wg.Done()
			if lo >= hi {
				args[k] = -1
				return
			}
			bestV := body(lo)
			bestI := lo
			for i := lo + 1; i < hi; i++ {
				if v := body(i); v < bestV {
					bestV, bestI = v, i
				}
			}
			mins[k], args[k] = bestV, bestI
		}(k, lo, hi)
	}
	wg.Wait()
	argmin = -1
	for k := 0; k < w; k++ {
		if args[k] < 0 {
			continue
		}
		if argmin == -1 || mins[k] < min {
			min, argmin = mins[k], args[k]
		}
	}
	return min, argmin
}
