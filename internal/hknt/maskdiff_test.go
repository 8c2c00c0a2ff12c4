package hknt

import (
	"math/rand"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// This file pins the word-parallel mask layer bit-identical to the naive
// sentinel scans it replaced: PostStats over the win mask versus the
// colors-array reference, and the packed live mask versus the three-array
// liveness predicate — across
// ragged participant counts (single node, word boundaries, stragglers)
// and worker counts 1/4/GOMAXPROCS, under -race in CI.

// naivePostStats is the pre-mask reference implementation, kept verbatim
// as the differential oracle.
func naivePostStats(st *State, prop Proposal, v int32) (won bool, liveDeg, slack int) {
	won = prop.Color[v] != d1lc.Uncolored
	liveDeg = st.LiveDegree(v)
	palLoss := 0
	var seenBuf [24]int32
	seen := seenBuf[:0]
	for _, u := range st.In.G.Neighbors(v) {
		if !st.Live(u) {
			continue
		}
		c := prop.Color[u]
		if c == d1lc.Uncolored {
			continue
		}
		liveDeg--
		if !containsColor(seen, c) && st.HasRem(v, c) {
			palLoss++
			seen = append(seen, c)
		}
	}
	slack = len(st.Rem[v]) - palLoss - liveDeg
	return won, liveDeg, slack
}

// naiveLive recomputes liveness from the public arrays, the predicate the
// packed mask replaced.
func naiveLive(st *State, v int32) bool {
	return !st.Colored(v) && !st.Deferred[v] && !st.PutAside[v]
}

// raggedNs crosses word boundaries: single node, 63/64/65, and stragglers.
var raggedNs = []int{1, 2, 63, 64, 65, 130, 200}

// scrambleState randomly colors, defers and puts aside nodes, keeping the
// coloring proper.
func scrambleState(st *State, rng *rand.Rand) {
	n := int32(st.In.G.N())
	for v := int32(0); v < n; v++ {
		if !st.Live(v) {
			continue
		}
		switch rng.Intn(5) {
		case 0:
			for _, c := range st.Rem[v] {
				free := true
				for _, u := range st.In.G.Neighbors(v) {
					if st.Col.Colors[u] == c {
						free = false
						break
					}
				}
				if free {
					st.SetColor(v, c)
					break
				}
			}
		case 1:
			st.Defer(v)
		case 2:
			st.MarkPutAside(v)
		}
	}
}

// randomProposal draws a conflict-free random partial proposal over the
// live nodes and finishes it with RecomputeWin.
func randomProposal(st *State, rng *rand.Rand) Proposal {
	n := st.In.G.N()
	prop := NewProposal(n)
	for v := int32(0); v < int32(n); v++ {
		if !st.Live(v) || len(st.Rem[v]) == 0 || rng.Intn(3) != 0 {
			continue
		}
		c := st.Rem[v][rng.Intn(len(st.Rem[v]))]
		ok := true
		for _, u := range st.In.G.Neighbors(v) {
			if prop.Color[u] == c || st.Col.Colors[u] == c {
				ok = false
				break
			}
		}
		if ok {
			prop.Color[v] = c
		}
	}
	prop.RecomputeWin(st.Par)
	return prop
}

func TestPostStatsMatchesNaiveScan(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		for _, n := range raggedNs {
			rng := rand.New(rand.NewSource(int64(n)*31 + int64(workers)))
			in := d1lc.TrivialPalettes(graph.Gnp(n, 4.0/float64(n+1), uint64(n)))
			st := NewState(in)
			st.Par = par.NewRunner(workers)
			scrambleState(st, rng)
			for trial := 0; trial < 3; trial++ {
				prop := randomProposal(st, rng)
				for v := int32(0); v < int32(n); v++ {
					gw, gd, gs := PostStats(st, prop, v)
					ww, wd, ws := naivePostStats(st, prop, v)
					if gw != ww || gd != wd || gs != ws {
						t.Fatalf("workers=%d n=%d v=%d: PostStats (%v,%d,%d) != naive (%v,%d,%d)",
							workers, n, v, gw, gd, gs, ww, wd, ws)
					}
				}
			}
		}
	}
}

func TestLiveMaskMatchesArrays(t *testing.T) {
	for _, n := range raggedNs {
		rng := rand.New(rand.NewSource(int64(n) * 13))
		in := d1lc.TrivialPalettes(graph.Gnp(n, 3.0/float64(n+1), uint64(n)+9))
		st := NewState(in)
		check := func(stage string) {
			for v := int32(0); v < int32(n); v++ {
				if st.Live(v) != naiveLive(st, v) {
					t.Fatalf("n=%d %s: Live(%d)=%v, arrays say %v", n, stage, v, st.Live(v), naiveLive(st, v))
				}
			}
		}
		check("fresh")
		scrambleState(st, rng)
		check("scrambled")
		// Coloring a put-aside node (the finisher's path) must keep the
		// mask cleared.
		for v := int32(0); v < int32(n); v++ {
			if st.PutAside[v] && !st.Colored(v) {
				for _, c := range st.Rem[v] {
					free := true
					for _, u := range st.In.G.Neighbors(v) {
						if st.Col.Colors[u] == c {
							free = false
							break
						}
					}
					if free {
						st.SetColor(v, c)
						break
					}
				}
				break
			}
		}
		check("putaside-colored")
	}
}

// TestApplyWalksWinMask guards the Win⇔Color invariant at the commit
// boundary: a proposal whose colors were written directly (without
// RecomputeWin or SetWin) must apply nothing, because Apply walks the
// mask, not the sentinel array.
func TestApplyWalksWinMask(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Path(4))
	st := NewState(in)
	prop := NewProposal(4)
	prop.Color[1] = 0 // desynced on purpose
	if n := st.Apply(prop); n != 0 {
		t.Fatalf("Apply committed %d wins from a zero win mask", n)
	}
	prop.RecomputeWin(nil)
	if n := st.Apply(prop); n != 1 {
		t.Fatalf("Apply after RecomputeWin committed %d wins, want 1", n)
	}
}
