package hknt

import (
	"slices"

	"parcolor/internal/d1lc"
	"parcolor/internal/rng"
)

// This file implements the randomized trials of [HKNT22] as pure Propose
// functions: Algorithm 3 (TryRandomColor), Algorithm 4 (MultiTrial),
// Algorithm 6 (GenerateSlack), Algorithm 8 (SynchColorTrial) and
// Algorithm 9 (PutAside). Each reads State + RandSource and returns a
// conflict-free Proposal; nothing is mutated. The bit budgets declared by
// the *Bits functions bound how much randomness each node consumes, the
// quantity Definition 5 caps at O(Δ^{2τ}).

// TryRandomColorBits returns the per-node bit budget of one
// TryRandomColor trial given the maximum remaining palette size.
func TryRandomColorBits(maxPalette int) int { return rng.IntnBits(maxPalette) }

// TryRandomColorPropose implements Algorithm 3 for the given participants:
// each live participant picks a uniform color from its remaining palette
// and wins iff no neighbor (participating or not — colored neighbors
// cannot pick) picked the same color this trial. Symmetric ties eliminate
// both sides, matching the ψ_v ∉ T rule. sc may be nil (allocate fresh).
func TryRandomColorPropose(st *State, parts []int32, src RandSource, sc *Scratch) Proposal {
	n := st.In.G.N()
	sc.claim(parts)
	cand := sc.candidates(n)
	curs := sc.cursors(st.Par.Workers(len(parts)))
	st.Par.ForChunkedWorker(len(parts), func(wk, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := parts[i]
			if !st.Live(v) || len(st.Rem[v]) == 0 {
				continue
			}
			b := bitsFor(src, v, curs[wk])
			cand[v] = st.Rem[v][b.TakeIntn(len(st.Rem[v]))]
		}
	})
	prop := sc.proposal(n)
	st.Par.For(len(parts), func(i int) {
		v := parts[i]
		c := cand[v]
		if c == d1lc.Uncolored {
			return
		}
		for _, u := range st.In.G.Neighbors(v) {
			if cand[u] == c {
				return
			}
		}
		prop.Color[v] = c
	})
	sc.setWins(st.Par, prop, parts)
	return prop
}

// MultiTrialBits returns the per-node bit budget of one MultiTrial(x).
func MultiTrialBits(x, maxPalette int) int { return x * rng.IntnBits(maxPalette) }

// MultiTrialPropose implements Algorithm 4: each live participant samples
// x distinct colors from its remaining palette (all of them if the palette
// is smaller) and wins the first sampled color that no neighbor sampled.
// The conflict pass reuses one blocked-set per worker instead of allocating
// a map per participant. sc may be nil (allocate fresh).
func MultiTrialPropose(st *State, parts []int32, x int, src RandSource, sc *Scratch) Proposal {
	n := st.In.G.N()
	sc.claim(parts)
	sets := sc.setsBuf(n)
	arenas, palBufs := sc.workerBufs(st.Par.Workers(len(parts)))
	curs := sc.cursors(st.Par.Workers(len(parts)))
	st.Par.ForChunkedWorker(len(parts), func(wk, lo, hi int) {
		arena := arenas[wk][:0]
		for i := lo; i < hi; i++ {
			v := parts[i]
			if !st.Live(v) || len(st.Rem[v]) == 0 {
				continue
			}
			b := bitsFor(src, v, curs[wk])
			base := len(arena)
			arena = appendSample(arena, &palBufs[wk], st.Rem[v], x, b)
			sets[v] = arena[base:len(arena):len(arena)]
		}
		arenas[wk] = arena
	})
	prop := sc.proposal(n)
	maps := sc.mapsBuf(st.Par.Workers(len(parts)))
	st.Par.ForChunkedWorker(len(parts), func(wk, lo, hi int) {
		blocked := maps[wk]
		for i := lo; i < hi; i++ {
			v := parts[i]
			if sets[v] == nil {
				continue
			}
			clear(blocked)
			for _, u := range st.In.G.Neighbors(v) {
				for _, c := range sets[u] {
					blocked[c] = true
				}
			}
			for _, c := range sets[v] {
				if !blocked[c] {
					prop.Color[v] = c
					break
				}
			}
		}
	})
	sc.setWins(st.Par, prop, parts)
	return prop
}

// appendSample draws min(x, len(pal)) distinct colors by a partial
// Fisher–Yates over pal and appends them to a worker-local arena,
// shuffling in a reused palette buffer instead of a fresh copy. The
// sampleColors reference in the tests makes the same draw on a copy.
func appendSample(arena []int32, palBuf *[]int32, pal []int32, x int, b *rng.Bits) []int32 {
	if x >= len(pal) {
		return append(arena, pal...)
	}
	cp := append((*palBuf)[:0], pal...)
	*palBuf = cp
	for i := 0; i < x; i++ {
		j := i + b.TakeIntn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return append(arena, cp[:x]...)
}

// GenerateSlackBits returns the per-node bit budget of GenerateSlack.
func GenerateSlackBits(maxPalette int) int {
	return rng.IntnBits(10) + rng.IntnBits(maxPalette)
}

// GenerateSlackPropose implements Algorithm 6: sample each participant
// into S independently with probability 1/10, then run one
// TryRandomColor among S. The colored sample creates permanent slack for
// its uncolored neighbors. sc may be nil (allocate fresh).
func GenerateSlackPropose(st *State, parts []int32, src RandSource, sc *Scratch) Proposal {
	n := st.In.G.N()
	sc.claim(parts)
	cand := sc.candidates(n)
	curs := sc.cursors(st.Par.Workers(len(parts)))
	st.Par.ForChunkedWorker(len(parts), func(wk, lo, hi int) {
		for i := lo; i < hi; i++ {
			v := parts[i]
			if !st.Live(v) || len(st.Rem[v]) == 0 {
				continue
			}
			b := bitsFor(src, v, curs[wk])
			if !b.TakeBool(1, 10) {
				continue
			}
			cand[v] = st.Rem[v][b.TakeIntn(len(st.Rem[v]))]
		}
	})
	prop := sc.proposal(n)
	st.Par.For(len(parts), func(i int) {
		v := parts[i]
		c := cand[v]
		if c == d1lc.Uncolored {
			return
		}
		for _, u := range st.In.G.Neighbors(v) {
			if cand[u] == c {
				return
			}
		}
		prop.Color[v] = c
	})
	sc.setWins(st.Par, prop, parts)
	return prop
}

// SynchColorTrialBits returns the per-node bit budget of SynchColorTrial:
// only leaders draw (a permutation of their palette), but budgets are
// per-node uniform, so we budget for the worst case.
func SynchColorTrialBits(maxClique, maxPalette int) int {
	k := maxClique
	if maxPalette < k {
		k = maxPalette
	}
	if k < 1 {
		k = 1
	}
	return k * rng.IntnBits(maxPalette)
}

// SynchColorTrialPropose implements Algorithm 8 for a set of cliques: each
// clique's leader samples a random partial permutation of its remaining
// palette and proposes the i-th color to its i-th live inlier. An inlier
// accepts iff the proposed color is in its own remaining palette and no
// neighbor was proposed (or trial-picked) the same color. Distinctness
// within a clique is automatic (a permutation); conflicts can only arise
// across cliques or from an inlier's outside neighbors. Only leaders read
// random bits. The live inliers of the cliques with an uncolored leader
// are listed once per call; with a Scratch the conflict pass runs over
// that list, and each leader's permutation is carved out of its worker's
// arena (the MultiTrial pattern), bit-identical to sampleColors. sc may be
// nil.
func SynchColorTrialPropose(st *State, cliques []CliqueInfo, src RandSource, sc *Scratch) Proposal {
	n := st.In.G.N()
	nodes, offs := sc.cliqueNodes(cliques, func(c *CliqueInfo, v int32) bool {
		// Leaderless trials are skipped; SSP will fail the clique.
		return !st.Colored(c.Leader) && st.Live(v) && v != c.Leader
	})
	sc.claim(nodes)
	cand := sc.candidates(n)
	arenas, palBufs := sc.workerBufs(st.Par.Workers(len(cliques)))
	curs := sc.cursors(st.Par.Workers(len(cliques)))
	st.Par.ForChunkedWorker(len(cliques), func(wk, lo, hi int) {
		arena := arenas[wk]
		for ci := lo; ci < hi; ci++ {
			live := nodes[offs[ci]:offs[ci+1]]
			if len(live) == 0 {
				continue
			}
			leader := cliques[ci].Leader
			pal := st.Rem[leader]
			k := len(live)
			if k > len(pal) {
				k = len(pal)
			}
			arena = appendSample(arena[:0], &palBufs[wk], pal, k, bitsFor(src, leader, curs[wk]))
			for i := 0; i < k; i++ {
				cand[live[i]] = arena[i]
			}
		}
		arenas[wk] = arena
	})
	prop := sc.proposal(n)
	sc.forWritten(st.Par, n, nodes, func(v int32) {
		c := cand[v]
		if c == d1lc.Uncolored || !st.Live(v) || !st.HasRem(v, c) {
			return
		}
		for _, u := range st.In.G.Neighbors(v) {
			if cand[u] == c {
				return
			}
		}
		prop.Color[v] = c
	})
	sc.setWins(st.Par, prop, nodes)
	return prop
}

// PutAsideBits returns the per-node bit budget of PutAside.
func PutAsideBits(denom int) int { return rng.IntnBits(denom) }

// PutAsideProb returns the Algorithm 9 sampling probability for a clique
// as a rational num/den: ℓ²/(48·Δ_C), clamped into [1/maxDen, 1/4] so the
// trial stays meaningful at laptop scales where ℓ² can exceed 48·Δ_C or
// vanish below 1/maxDen.
func PutAsideProb(ell float64, maxDegC, maxDen int) (num, den int) {
	den = maxDen
	p := ell * ell / (48 * float64(maxInt(maxDegC, 1)))
	if p > 0.25 {
		p = 0.25
	}
	num = int(p * float64(den))
	if num < 1 {
		num = 1
	}
	return num, den
}

// PutAsidePropose implements Algorithm 9: each inlier of a low-slackability
// clique joins S independently with the clique's probability probFor(c)
// (paper: ℓ²/(48·Δ_C)); the put-aside set P_C keeps the members of S_C
// with no neighbor anywhere in S. The returned proposal carries marks, not
// colors. Put-aside sets of different cliques have no edges between them
// by construction. The live inliers of the low-slack cliques are listed
// once per call; with a Scratch the mark pass runs over that list. sc may
// be nil (allocate fresh).
func PutAsidePropose(st *State, cliques []CliqueInfo, probFor func(c *CliqueInfo) (num, den int), src RandSource, sc *Scratch) Proposal {
	n := st.In.G.N()
	nodes, offs := sc.cliqueNodes(cliques, func(c *CliqueInfo, v int32) bool {
		return c.LowSlack && st.Live(v)
	})
	sc.claim(nodes)
	inS := sc.sampleFlags(n)
	curs := sc.cursors(st.Par.Workers(len(cliques)))
	st.Par.ForChunkedWorker(len(cliques), func(wk, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			live := nodes[offs[ci]:offs[ci+1]]
			if len(live) == 0 {
				continue
			}
			num, den := probFor(&cliques[ci])
			for _, v := range live {
				if bitsFor(src, v, curs[wk]).TakeBool(num, den) {
					inS[v] = true
				}
			}
		}
	})
	prop := sc.proposal(n)
	prop.Mark = sc.markBuf(n)
	sc.setMarks(st.Par, prop.Mark, n, nodes, func(v int32) bool {
		if !inS[v] {
			return false
		}
		for _, u := range st.In.G.Neighbors(v) {
			if inS[u] {
				return false
			}
		}
		return true
	})
	return prop
}

// CliqueInfo carries the per-almost-clique roles computed by Lemma 22.
type CliqueInfo struct {
	ID       int32
	Members  []int32
	Leader   int32
	Outliers []int32
	Inliers  []int32
	// LowSlack marks cliques whose leader slackability is at most ℓ; these
	// need put-aside sets (Algorithm 7 step 3).
	LowSlack bool
	// MaxDeg is Δ_C, the maximum degree within the clique's members.
	MaxDeg int
}

// sortNodes sorts a node list ascending in place and returns it.
func sortNodes(xs []int32) []int32 {
	slices.Sort(xs)
	return xs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
