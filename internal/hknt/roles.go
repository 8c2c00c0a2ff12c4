package hknt

import (
	"math"
	"sort"

	"parcolor/internal/acd"
	"parcolor/internal/graph"
	"parcolor/internal/par"
)

// This file computes the per-clique roles of Lemma 22: the leader x_C
// (minimum slackability), the outlier set O_C, the inliers I_C = C \ O_C,
// and the low-slackability flag that decides which cliques need put-aside
// sets. All quantities depend only on 2-hop information, which is why
// Lemma 22 runs in O(1) MPC rounds.

// ComputeCliqueInfos derives CliqueInfo for every almost-clique of the
// decomposition. ell is the ℓ threshold on leader slackability below which
// a clique is "low slack" (paper: ℓ = log^{2.1} Δ). r scopes the per-clique
// parallel loop (nil = process default).
func ComputeCliqueInfos(r *par.Runner, g *graph.Graph, a *acd.ACD, ell float64) []CliqueInfo {
	infos := make([]CliqueInfo, len(a.Cliques))
	r.For(len(a.Cliques), func(ci int) {
		members := a.Cliques[ci]
		info := CliqueInfo{ID: int32(ci), Members: members}
		// Leader: minimum slackability, ties to smallest id (members are
		// sorted ascending so the scan handles ties).
		best := math.Inf(1)
		for _, v := range members {
			if s := a.Params.Slackab[v]; s < best {
				best = s
				info.Leader = v
			}
		}
		info.LowSlack = best <= ell
		for _, v := range members {
			if d := g.Degree(v); d > info.MaxDeg {
				info.MaxDeg = d
			}
		}
		info.Outliers, info.Inliers = splitOutliers(g, members, info.Leader)
		infos[ci] = info
	})
	return infos
}

// splitOutliers computes O_C per Lemma 22: the union of
//   - the max{d(x_C), |C|}/3 members with fewest common neighbors with x_C,
//   - the |C|/6 members of largest degree,
//   - the members that are not neighbors of x_C,
//
// with the leader itself always kept an inlier. Everything else is I_C.
func splitOutliers(g *graph.Graph, members []int32, leader int32) (outliers, inliers []int32) {
	isOut := map[int32]bool{}
	// Non-neighbors of the leader.
	ln := g.Neighbors(leader)
	isLeaderNbr := func(v int32) bool {
		i := sort.Search(len(ln), func(i int) bool { return ln[i] >= v })
		return i < len(ln) && ln[i] == v
	}
	for _, v := range members {
		if v != leader && !isLeaderNbr(v) {
			isOut[v] = true
		}
	}
	// Fewest common neighbors with the leader.
	type scored struct {
		v      int32
		common int
	}
	sc := make([]scored, 0, len(members))
	for _, v := range members {
		if v == leader {
			continue
		}
		sc = append(sc, scored{v: v, common: commonNeighbors(g, leader, v)})
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].common != sc[j].common {
			return sc[i].common < sc[j].common
		}
		return sc[i].v < sc[j].v
	})
	kFew := maxOf(g.Degree(leader), len(members)) / 3
	for i := 0; i < kFew && i < len(sc); i++ {
		isOut[sc[i].v] = true
	}
	// Largest degree.
	sort.Slice(sc, func(i, j int) bool {
		di, dj := g.Degree(sc[i].v), g.Degree(sc[j].v)
		if di != dj {
			return di > dj
		}
		return sc[i].v < sc[j].v
	})
	kBig := len(members) / 6
	for i := 0; i < kBig && i < len(sc); i++ {
		isOut[sc[i].v] = true
	}
	for _, v := range members {
		if isOut[v] {
			outliers = append(outliers, v)
		} else {
			inliers = append(inliers, v)
		}
	}
	return sortNodes(outliers), sortNodes(inliers)
}

func commonNeighbors(g *graph.Graph, u, v int32) int {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Vstart identification (Section 5.2) ----------------------------------

// The ε₁..ε₅ constants of the Vstart definition and the heavy-color
// threshold. They follow the structure of [HKNT22] with constants scaled
// to be meaningful at laptop-size degrees.
const (
	eps1       = 0.5 // Vbalanced fraction
	eps2       = 0.3 // Vdisc discrepancy fraction
	eps3       = 0.3 // dense-neighbor fraction for Veasy
	eps4       = 0.3 // heavy-mass fraction for Vheavy
	eps5       = 0.3 // easy-neighbor fraction for Vstart
	heavyConst = 1.0 // per-color heaviness threshold
)

// VstartSets reports the Section 5.2 breakdown of Vsparse ∪ Vuneven.
type VstartSets struct {
	Balanced []int32
	Disc     []int32
	Easy     []int32 // includes balanced, disc, uneven, dense-adjacent
	Heavy    []int32 // degree ≥ LowDeg only
	Start    []int32 // degree ≥ LowDeg only
}

// IdentifyVstart computes Vbalanced, Vdisc, Veasy, Vheavy and Vstart from
// the decomposition, per the display in Section 5.2. Membership tests use
// the original-instance degrees and palettes (the sets are computed before
// any coloring). Veasy covers every node, because the Vstart test reads
// it on neighbors; Vheavy and Vstart are tested only for nodes of degree
// at least lowDeg, the only ones the schedule takes.
func IdentifyVstart(st *State, a *acd.ACD, lowDeg int) VstartSets {
	g := st.In.G
	n := g.N()
	var sets VstartSets
	inEasy := make([]bool, n)
	isSparse := func(v int32) bool { return a.Class[v] == acd.Sparse }

	for v := int32(0); v < int32(n); v++ {
		d := g.Degree(v)
		if d == 0 {
			continue
		}
		if isSparse(v) {
			// Vbalanced: many neighbors with degree > 2d(v)/3.
			cnt := 0
			for _, u := range g.Neighbors(v) {
				if 3*g.Degree(u) > 2*d {
					cnt++
				}
			}
			if float64(cnt) >= eps1*float64(d) {
				sets.Balanced = append(sets.Balanced, v)
				inEasy[v] = true
			}
			// Vdisc: high discrepancy.
			if a.Params.Discrepancy[v] >= eps2*float64(d) {
				sets.Disc = append(sets.Disc, v)
				inEasy[v] = true
			}
			// Dense-adjacent.
			dense := 0
			for _, u := range g.Neighbors(v) {
				if a.Class[u] == acd.Dense {
					dense++
				}
			}
			if float64(dense) >= eps3*float64(d) {
				inEasy[v] = true
			}
		}
		if a.Class[v] == acd.Uneven {
			inEasy[v] = true
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if inEasy[v] {
			sets.Easy = append(sets.Easy, v)
		}
	}
	inHeavy := make([]bool, n)
	for v := int32(0); v < int32(n); v++ {
		if !isSparse(v) || inEasy[v] {
			continue
		}
		d := g.Degree(v)
		if d == 0 || d < lowDeg {
			continue
		}
		_, sumH := heavyMass(st, v, heavyConst)
		if sumH >= eps4*float64(d) {
			sets.Heavy = append(sets.Heavy, v)
			inHeavy[v] = true
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if !isSparse(v) || inEasy[v] || inHeavy[v] {
			continue
		}
		d := g.Degree(v)
		if d == 0 || d < lowDeg {
			continue
		}
		easy := 0
		for _, u := range g.Neighbors(v) {
			if inEasy[u] {
				easy++
			}
		}
		if float64(easy) >= eps5*float64(d) {
			sets.Start = append(sets.Start, v)
		}
	}
	return sets
}

// heavyMass returns the colors c in v's remaining palette whose expected
// number of picks among v's live neighbors,
// H(c) = Σ_{u∈N(v) live, c∈Rem(u)} 1/|Rem(u)|, is at least threshold,
// together with Σ_{heavy c} H(c): the C^heavy_v set of the Vstart
// definition (Section 5.2).
func heavyMass(st *State, v int32, threshold float64) (heavy []int32, sumH float64) {
	load := map[int32]float64{}
	for _, u := range st.In.G.Neighbors(v) {
		pu := len(st.Rem[u])
		if pu == 0 || !st.Live(u) {
			continue
		}
		w := 1 / float64(pu)
		for _, c := range st.Rem[u] {
			load[c] += w
		}
	}
	for _, c := range st.Rem[v] {
		if h := load[c]; h >= threshold {
			heavy = append(heavy, c)
			sumH += h
		}
	}
	return heavy, sumH
}
