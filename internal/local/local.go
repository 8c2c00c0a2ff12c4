// Package local provides a synchronous-round engine for the LOCAL model of
// distributed computing: per-node state, per-round message exchange with
// strict two-phase (send-then-receive) semantics, and round/word
// accounting.
//
// The engine enforces the LOCAL information-flow discipline mechanically:
// all outgoing messages of a round are snapshotted before any node's
// receive handler runs, so a handler can never observe same-round effects
// of its neighbors. Algorithms that are implemented directly on shared
// state for speed (package hknt) are cross-checked against engine-run
// versions in tests.
//
// Word accounting feeds the MPC space arguments: simulating one LOCAL
// round on a sublinear-space MPC requires each node's total message volume
// to fit on a machine (Lemma 17), which callers check via Stats.
package local

import (
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// Inbox is the set of messages delivered to one node in one round.
// From[i] is the sender of Msgs[i]; senders appear in ascending order.
type Inbox struct {
	From []int32
	Msgs [][]int32
}

// Round describes one synchronous round. Nil function fields default to
// "no participation" behaviour.
type Round struct {
	// Active reports whether v participates this round. Inactive nodes
	// neither send nor receive. Nil means all nodes are active.
	Active func(v int32) bool
	// Broadcast returns the message v sends to every neighbor (nil = none).
	Broadcast func(v int32) []int32
	// Unicast returns the message v sends to its i-th neighbor u
	// (nil = none). Evaluated in addition to Broadcast.
	Unicast func(v int32, i int, u int32) []int32
	// Receive handles v's inbox after all sends are snapshotted.
	Receive func(v int32, in Inbox)
}

// Stats accumulates engine accounting.
type Stats struct {
	Rounds       int
	WordsSent    int64
	MaxNodeWords int64 // max words sent+received by a single node in a round
}

// Engine runs rounds over a fixed graph.
type Engine struct {
	G     *graph.Graph
	Stats Stats

	// scratch: per-node outboxes, rebuilt each round
	bcast [][]int32
	uni   [][][]int32
}

// New returns an engine over g.
func New(g *graph.Graph) *Engine {
	return &Engine{G: g}
}

// Run executes one synchronous round and updates Stats.
func (e *Engine) Run(r Round) {
	n := e.G.N()
	if e.bcast == nil {
		e.bcast = make([][]int32, n)
		e.uni = make([][][]int32, n)
	}
	active := r.Active
	if active == nil {
		active = func(int32) bool { return true }
	}
	var pr *par.Runner // nil: GOMAXPROCS workers, no cancellation
	// Phase 1: snapshot all sends.
	pr.For(n, func(i int) {
		v := int32(i)
		e.bcast[v] = nil
		e.uni[v] = nil
		if !active(v) {
			return
		}
		if r.Broadcast != nil {
			e.bcast[v] = r.Broadcast(v)
		}
		if r.Unicast != nil {
			ns := e.G.Neighbors(v)
			var msgs [][]int32
			for idx, u := range ns {
				m := r.Unicast(v, idx, u)
				if m != nil && msgs == nil {
					msgs = make([][]int32, len(ns))
				}
				if msgs != nil {
					msgs[idx] = m
				}
			}
			e.uni[v] = msgs
		}
	})
	// Phase 2: deliver.
	nodeWords := make([]int64, n)
	pr.For(n, func(i int) {
		v := int32(i)
		if !active(v) || r.Receive == nil {
			return
		}
		var in Inbox
		var words int64
		for _, u := range e.G.Neighbors(v) {
			if !active(u) {
				continue
			}
			if m := e.bcast[u]; m != nil {
				in.From = append(in.From, u)
				in.Msgs = append(in.Msgs, m)
				words += int64(len(m))
			}
			if e.uni[u] != nil {
				// find v's index in u's neighbor list via binary search
				idx := indexOf(e.G.Neighbors(u), v)
				if idx >= 0 && e.uni[u][idx] != nil {
					in.From = append(in.From, u)
					in.Msgs = append(in.Msgs, e.uni[u][idx])
					words += int64(len(e.uni[u][idx]))
				}
			}
		}
		nodeWords[v] = words
		r.Receive(v, in)
	})
	var sent int64
	maxNode := e.Stats.MaxNodeWords
	for v := 0; v < n; v++ {
		var out int64
		if e.bcast[v] != nil {
			out += int64(len(e.bcast[v]) * e.G.Degree(int32(v)))
		}
		for _, m := range e.uni[v] {
			out += int64(len(m))
		}
		sent += out
		if t := out + nodeWords[v]; t > maxNode {
			maxNode = t
		}
	}
	e.Stats.Rounds++
	e.Stats.WordsSent += sent
	e.Stats.MaxNodeWords = maxNode
}

func indexOf(sorted []int32, x int32) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == x {
		return lo
	}
	return -1
}

// Meter is a lightweight round counter for algorithms implemented directly
// on shared state (package hknt): they call Tick once per LOCAL round they
// simulate, so experiment tables report the same unit as the engine.
type Meter struct {
	Rounds int
	// MPCFactor converts LOCAL rounds to MPC rounds (the paper simulates
	// one LOCAL round in O(1) MPC rounds once Δ² ≤ s); tables report both.
	MPCFactor int
}

// Tick records n LOCAL rounds.
func (m *Meter) Tick(n int) { m.Rounds += n }

// MPCRounds reports the MPC-round equivalent.
func (m *Meter) MPCRounds() int {
	f := m.MPCFactor
	if f == 0 {
		f = 1
	}
	return m.Rounds * f
}
