package hknt

// Faithfulness cross-checks: the fast shared-state trial implementations
// must produce exactly the outcomes of a literal message-passing LOCAL
// implementation (localRound below) of the same pseudocode with the same
// randomness. This pins the shared-state versions to the paper's
// Algorithm 3/4 semantics.

import (
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/rng"
)

// inbox is the set of messages one node receives in one round: From[i]
// sent Msgs[i], and senders appear in ascending order.
type inbox struct {
	From []int32
	Msgs [][]int32
}

// localRound runs one synchronous LOCAL round on g. Every node's
// broadcast (nil sends nothing) is taken before any receive handler runs,
// so a handler never observes a same-round effect of a neighbor; then each
// node receives its neighbors' messages in ascending sender order.
func localRound(g *graph.Graph, broadcast func(v int32) []int32, receive func(v int32, in inbox)) {
	n := g.N()
	sent := make([][]int32, n)
	for v := range sent {
		sent[v] = broadcast(int32(v))
	}
	for v := int32(0); v < int32(n); v++ {
		var in inbox
		for _, u := range g.Neighbors(v) {
			if m := sent[u]; m != nil {
				in.From = append(in.From, u)
				in.Msgs = append(in.Msgs, m)
			}
		}
		receive(v, in)
	}
}

func TestLocalRoundDelivery(t *testing.T) {
	g := graph.Cycle(5)
	got := make([][]int32, 5)
	localRound(g, func(v int32) []int32 { return []int32{v * 10} }, func(v int32, in inbox) {
		for _, m := range in.Msgs {
			got[v] = append(got[v], m[0])
		}
	})
	for v := int32(0); v < 5; v++ {
		if len(got[v]) != 2 {
			t.Fatalf("node %d received %d messages", v, len(got[v]))
		}
		for i, u := range g.Neighbors(v) {
			if got[v][i] != u*10 {
				t.Fatalf("node %d received %v from neighbors %v", v, got[v], g.Neighbors(v))
			}
		}
	}
}

func TestLocalRoundSnapshotSemantics(t *testing.T) {
	// Receive must observe pre-round state: each node broadcasts its value,
	// then doubles it on receive. All received values must be originals.
	g := graph.Complete(4)
	vals := []int32{1, 2, 3, 4}
	localRound(g, func(v int32) []int32 { return []int32{vals[v]} }, func(v int32, in inbox) {
		sum := int32(0)
		for _, m := range in.Msgs {
			sum += m[0]
		}
		// sum of others' originals = 10 - vals[v]
		if sum != 10-vals[v] {
			t.Errorf("node %d observed a same-round mutation: sum %d", v, sum)
		}
		vals[v] *= 2
	})
}

func TestLocalRoundSenderOrder(t *testing.T) {
	g := graph.Complete(5)
	localRound(g, func(v int32) []int32 { return []int32{v} }, func(v int32, in inbox) {
		for i := 1; i < len(in.From); i++ {
			if in.From[i-1] >= in.From[i] {
				t.Errorf("inbox of %d not sorted: %v", v, in.From)
				return
			}
		}
	})
}

func TestLocalRoundFlood(t *testing.T) {
	// BFS-style flooding needs exactly eccentricity rounds on a path.
	g := graph.Path(6)
	reached := make([]bool, 6)
	reached[0] = true
	for r := 0; r < 5; r++ {
		next := make([]bool, 6)
		copy(next, reached)
		localRound(g, func(v int32) []int32 {
			if reached[v] {
				return []int32{1}
			}
			return nil
		}, func(v int32, in inbox) {
			if len(in.Msgs) > 0 {
				next[v] = true
			}
		})
		reached = next
	}
	for v, r := range reached {
		if !r {
			t.Fatalf("node %d not reached after 5 rounds", v)
		}
	}
}

// localTryRandomColor runs Algorithm 3 literally as a LOCAL round:
// round 1 broadcasts candidates, receivers decide; the decision must equal
// the proposal of TryRandomColorPropose under the same per-node bits.
func localTryRandomColor(g *graph.Graph, st *State, bitsAt func(v int32) *rng.Bits) []int32 {
	n := g.N()
	cand := make([]int32, n)
	won := make([]int32, n)
	for v := range cand {
		cand[v] = d1lc.Uncolored
		won[v] = d1lc.Uncolored
	}
	for v := int32(0); v < int32(n); v++ {
		if !st.Live(v) || len(st.Rem[v]) == 0 {
			continue
		}
		cand[v] = st.Rem[v][bitsAt(v).TakeIntn(len(st.Rem[v]))]
	}
	localRound(g, func(v int32) []int32 {
		if cand[v] == d1lc.Uncolored {
			return nil
		}
		return []int32{cand[v]}
	}, func(v int32, in inbox) {
		if cand[v] == d1lc.Uncolored {
			return
		}
		for _, m := range in.Msgs {
			if m[0] == cand[v] {
				return
			}
		}
		won[v] = cand[v]
	})
	return won
}

func TestTryRandomColorMatchesLocalEngine(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		g := graph.Gnp(60, 0.12, seed)
		st := NewState(d1lc.TrivialPalettes(g))
		parts := st.LiveNodes(nil)
		bits := 256
		src := FreshSource{Root: seed, Round: 0, Bits: bits}
		prop := TryRandomColorPropose(st, parts, src, nil)
		ref := localTryRandomColor(g, st, func(v int32) *rng.Bits {
			return FreshSource{Root: seed, Round: 0, Bits: bits}.BitsFor(v)
		})
		for v := int32(0); v < int32(g.N()); v++ {
			if prop.Color[v] != ref[v] {
				t.Fatalf("seed %d node %d: fast=%d engine=%d", seed, v, prop.Color[v], ref[v])
			}
		}
	}
}

// localMultiTrial runs Algorithm 4 literally: broadcast candidate sets,
// keep the first own candidate in nobody else's set.
func localMultiTrial(g *graph.Graph, st *State, x int, bitsAt func(v int32) *rng.Bits) []int32 {
	n := g.N()
	sets := make([][]int32, n)
	won := make([]int32, n)
	for v := range won {
		won[v] = d1lc.Uncolored
	}
	for v := int32(0); v < int32(n); v++ {
		if !st.Live(v) || len(st.Rem[v]) == 0 {
			continue
		}
		sets[v] = sampleColors(st.Rem[v], x, bitsAt(v))
	}
	localRound(g, func(v int32) []int32 { return sets[v] }, func(v int32, in inbox) {
		if sets[v] == nil {
			return
		}
		blocked := map[int32]bool{}
		for _, m := range in.Msgs {
			for _, c := range m {
				blocked[c] = true
			}
		}
		for _, c := range sets[v] {
			if !blocked[c] {
				won[v] = c
				return
			}
		}
	})
	return won
}

func TestMultiTrialMatchesLocalEngine(t *testing.T) {
	for _, x := range []int{1, 2, 4} {
		g := graph.RandomRegular(50, 6, uint64(x))
		st := NewState(d1lc.RandomPalettes(g, 3, 30, uint64(x)))
		parts := st.LiveNodes(nil)
		bits := MultiTrialBits(x, 30) * 2
		src := FreshSource{Root: 9, Round: uint64(x), Bits: bits}
		prop := MultiTrialPropose(st, parts, x, src, nil)
		ref := localMultiTrial(g, st, x, func(v int32) *rng.Bits {
			return FreshSource{Root: 9, Round: uint64(x), Bits: bits}.BitsFor(v)
		})
		for v := int32(0); v < int32(g.N()); v++ {
			if prop.Color[v] != ref[v] {
				t.Fatalf("x=%d node %d: fast=%d engine=%d", x, v, prop.Color[v], ref[v])
			}
		}
	}
}

func TestWordBudgetsGenerous(t *testing.T) {
	// Declared per-node budgets must cover the worst-case draws of each
	// trial (sampling x colors, leader permutations, Bernoulli draws).
	maxPal := 64
	if TryRandomColorBits(maxPal) < rng.IntnBits(maxPal) {
		t.Fatal("TRC budget too small")
	}
	if MultiTrialBits(8, maxPal) < 8*rng.IntnBits(maxPal) {
		t.Fatal("MultiTrial budget too small")
	}
	if GenerateSlackBits(maxPal) < rng.IntnBits(10)+rng.IntnBits(maxPal) {
		t.Fatal("GenerateSlack budget too small")
	}
	if SynchColorTrialBits(16, maxPal) < 16*rng.IntnBits(maxPal) {
		t.Fatal("SynchColorTrial budget too small")
	}
}
