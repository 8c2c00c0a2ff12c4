package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// admission is the bounded-queue admission controller in front of the
// solver pool. At most maxInflight solves run at once;
// requests beyond that wait in a queue whose depth is capped by the
// watermark maxQueue. A request arriving when the queue is at the
// watermark is rejected immediately (the caller answers 429 with a
// Retry-After derived from observed solve times), so overload sheds load
// at the door instead of accumulating goroutines until memory runs out.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64 // requests waiting for a slot
	running  atomic.Int64 // requests holding a slot
	rejected atomic.Int64
	// avgSolveNs is an EWMA of recent solve wall times, feeding the
	// Retry-After estimate.
	avgSolveNs atomic.Int64
}

func newAdmission(maxInflight, maxQueue int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
}

// acquire claims a solve slot, waiting in the bounded queue if all slots
// are busy. It returns (release, 0, nil) on success; (nil, retryAfter,
// errOverloaded) when the queue watermark is crossed; (nil, 0, ctx.Err())
// when the caller disconnects while queued.
func (a *admission) acquire(ctx context.Context) (release func(), retryAfter time.Duration, err error) {
	// Fast path: a free slot admits immediately without touching the
	// queue, so a burst no larger than the slot pool never sheds load.
	select {
	case a.slots <- struct{}{}:
		a.running.Add(1)
		return func() {
			a.running.Add(-1)
			<-a.slots
		}, 0, nil
	default:
	}
	if q := a.queued.Add(1); q > a.maxQueue {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return nil, a.retryAfter(), errOverloaded
	}
	select {
	case a.slots <- struct{}{}:
		a.queued.Add(-1)
		a.running.Add(1)
		return func() {
			a.running.Add(-1)
			<-a.slots
		}, 0, nil
	case <-ctx.Done():
		a.queued.Add(-1)
		return nil, 0, ctx.Err()
	}
}

// observeSolve folds one completed solve's wall time into the EWMA
// (α = 1/8; the first observation seeds it).
func (a *admission) observeSolve(d time.Duration) {
	n := int64(d)
	for {
		old := a.avgSolveNs.Load()
		var next int64
		if old == 0 {
			next = n
		} else {
			next = old + (n-old)/8
		}
		if a.avgSolveNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates when a rejected client should come back: the time
// to drain the current backlog through the slot pool, clamped to [1s, 30s]
// (whole seconds, as the Retry-After header wants).
func (a *admission) retryAfter() time.Duration {
	backlog := a.queued.Load() + a.running.Load()
	avg := time.Duration(a.avgSolveNs.Load())
	if avg <= 0 {
		avg = 250 * time.Millisecond
	}
	est := time.Duration(backlog) * avg / time.Duration(cap(a.slots))
	est = est.Round(time.Second)
	if est < time.Second {
		est = time.Second
	}
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}
