// Package faultinject wraps an mpc.Transport with deterministic,
// seedable chaos: per-message drop and duplication, per-destination
// reordering, per-machine straggler latency, and machine crash/restart
// windows. Every decision is a pure function of (Schedule.Seed, delivery
// tick, message index), so a chaos run replays byte-for-byte — the
// property the differential suites lean on: under any schedule, a solve
// either produces the fault-free oracle's coloring bit-identically
// (after retries or fallback) or a classified error, never a silently
// different answer.
//
// The wrapper never mutates payloads. A record is delivered with the
// sender's exact words or not at all; FuzzFaultyTransportNeverCorrupts
// pins this invariant over arbitrary schedules.
//
// Faults come in two strengths, mirroring the mpc package's fault model:
//
//   - Loud faults abort the round with a classified error before any
//     delivery: an active (non-silent) crash window returns
//     mpc.ErrMachineLost; a message whose simulated latency exceeds the
//     round deadline returns mpc.ErrRoundTimeout. The synchronous model
//     cannot proceed without the machine, and the failure detector says
//     so.
//   - Silent faults (drops, duplicates, reorders, silent-crash message
//     loss) deliver a faulty subset and rely on the protocols'
//     delivery-accounting checks (mpc.ErrSegmentLost) for detection.
//
// Ticks count Deliver calls on this wrapper, independent of the
// cluster's committed round count, so a retried round advances the
// schedule — which is what lets bounded retries escape transient fault
// windows deterministically.
package faultinject

import (
	"fmt"
	"time"

	"parcolor/internal/mpc"
	"parcolor/internal/rng"
	"parcolor/internal/trace"
)

// StragglerSpan slows one machine's deliveries during [From, To) ticks:
// its messages take BaseLatency·Factor instead of BaseLatency. To < 0
// means the span never ends.
type StragglerSpan struct {
	Machine  int
	From, To int
	Factor   float64
}

// CrashSpan takes one machine down during [From, To) ticks. To < 0 means
// the machine never restarts. A non-silent crash is loud: any round
// inside the window fails with mpc.ErrMachineLost. A Silent crash
// instead swallows every message the machine sends or should receive,
// exercising the protocols' lost-segment detection.
type CrashSpan struct {
	Machine  int
	From, To int
	Silent   bool
}

// Schedule is a deterministic fault plan. The zero value injects
// nothing: a Transport over an empty schedule is delivery-identical to
// its inner transport.
type Schedule struct {
	// Seed drives every probabilistic decision; same seed, same chaos.
	Seed uint64
	// DropProb / DupProb apply independently per message; ReorderProb
	// applies per (tick, destination) inbox. All in [0, 1].
	DropProb, DupProb, ReorderProb float64
	// BaseLatency is the simulated delivery latency of a healthy
	// machine (default 1ms). Latency only matters when the cluster sets
	// a RoundDeadline.
	BaseLatency time.Duration
	Stragglers  []StragglerSpan
	Crashes     []CrashSpan
}

// Stats counts injected faults. Ticks is the number of Deliver calls
// observed (the schedule clock).
type Stats struct {
	Ticks, Drops, Dups, Reorders, Timeouts, CrashedRounds int64
}

// Transport applies a Schedule in front of an inner mpc.Transport. Not
// safe for concurrent use: Deliver is called from the single-threaded
// round boundary, like every transport.
type Transport struct {
	inner mpc.Transport
	sched Schedule
	tr    trace.Tracer
	tick  int
	stats Stats
}

// New wraps inner (nil = mpc.Loopback) with the schedule. Fault events
// are emitted to tr (engine "transport", phase = fault kind, Round =
// tick, Participants = machine) so serving layers can alert on chaos;
// nil disables emission.
func New(inner mpc.Transport, sched Schedule, tr trace.Tracer) *Transport {
	if inner == nil {
		inner = mpc.Loopback{}
	}
	if sched.BaseLatency <= 0 {
		sched.BaseLatency = time.Millisecond
	}
	return &Transport{inner: inner, sched: sched, tr: tr}
}

// Stats returns the fault counters accumulated so far.
func (t *Transport) Stats() Stats { return t.stats }

func spanActive(from, to, tick int) bool {
	return tick >= from && (to < 0 || tick < to)
}

// latency returns machine m's simulated delivery latency at tick.
func (t *Transport) latency(m, tick int) time.Duration {
	lat := t.sched.BaseLatency
	for _, s := range t.sched.Stragglers {
		if s.Machine == m && spanActive(s.From, s.To, tick) && s.Factor > 1 {
			d := time.Duration(float64(t.sched.BaseLatency) * s.Factor)
			if d > lat {
				lat = d
			}
		}
	}
	return lat
}

func (t *Transport) silentlyCrashed(m, tick int) bool {
	for _, cs := range t.sched.Crashes {
		if cs.Silent && cs.Machine == m && spanActive(cs.From, cs.To, tick) {
			return true
		}
	}
	return false
}

func (t *Transport) event(kind string, tick, machine int) {
	sp := trace.Begin(t.tr, "transport", kind, tick, machine)
	sp.End(0, 0, 0)
}

// Deliver applies the schedule at the current tick, then delegates
// whatever survives to the inner transport. Loud faults (crash windows,
// deadline misses) fail the round before any delivery.
func (t *Transport) Deliver(n int, envs []mpc.Envelope, deadline time.Duration) ([][]mpc.Delivery, error) {
	tick := t.tick
	t.tick++
	t.stats.Ticks++
	for _, cs := range t.sched.Crashes {
		if !cs.Silent && spanActive(cs.From, cs.To, tick) {
			t.stats.CrashedRounds++
			t.event("crash", tick, cs.Machine)
			return nil, fmt.Errorf("faultinject: machine %d down at tick %d: %w", cs.Machine, tick, mpc.ErrMachineLost)
		}
	}
	if deadline > 0 {
		for _, e := range envs {
			if lat := t.latency(e.From, tick); lat > deadline {
				t.stats.Timeouts++
				t.event("timeout", tick, e.From)
				return nil, fmt.Errorf("faultinject: machine %d latency %v exceeds round deadline %v at tick %d: %w",
					e.From, lat, deadline, tick, mpc.ErrRoundTimeout)
			}
		}
	}
	out := make([]mpc.Envelope, 0, len(envs))
	for i, e := range envs {
		if t.silentlyCrashed(e.From, tick) || t.silentlyCrashed(e.To, tick) {
			t.stats.Drops++
			t.event("drop", tick, e.From)
			continue
		}
		s := rng.At2(t.sched.Seed, uint64(tick), uint64(i))
		if t.sched.DropProb > 0 && s.Float64() < t.sched.DropProb {
			t.stats.Drops++
			t.event("drop", tick, e.From)
			continue
		}
		out = append(out, e)
		if t.sched.DupProb > 0 && s.Float64() < t.sched.DupProb {
			t.stats.Dups++
			t.event("dup", tick, e.From)
			out = append(out, e)
		}
	}
	if t.sched.ReorderProb > 0 {
		byDest := make([][]int, n) // destination → indices into out
		for i, e := range out {
			byDest[e.To] = append(byDest[e.To], i)
		}
		for dest := 0; dest < n; dest++ {
			idx := byDest[dest]
			if len(idx) < 2 {
				continue
			}
			s := rng.At2(t.sched.Seed^0xC4A0, uint64(tick), uint64(dest))
			if s.Float64() >= t.sched.ReorderProb {
				continue
			}
			t.stats.Reorders++
			t.event("reorder", tick, dest)
			// Fisher–Yates over the destination's envelope positions;
			// payload slices move untouched.
			for j := len(idx) - 1; j > 0; j-- {
				k := s.Intn(j + 1)
				out[idx[j]], out[idx[k]] = out[idx[k]], out[idx[j]]
			}
		}
	}
	return t.inner.Deliver(n, out, deadline)
}
