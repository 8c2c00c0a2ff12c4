package hknt

import (
	"fmt"
	"slices"

	"parcolor/internal/par"

	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
)

// This file assembles the ColorSparse (Algorithm 5), ColorDense
// (Algorithm 7) and ColorMiddle (Algorithm 1) schedules and provides the
// randomized runner of Lemma 4: the pipeline that package deframe
// derandomizes step by step.

// BuildResult bundles a schedule with the analysis artifacts it was built
// from, which the experiment harness reports. ACD, Cliques and Vstart are
// empty when no node reaches LowDeg (see BuildColorMiddle).
type BuildResult struct {
	Schedule Schedule
	ACD      *acd.ACD
	Cliques  []CliqueInfo
	Vstart   VstartSets
	Tunables Tunables
}

// BuildColorMiddle constructs the pre-shattering schedule of Algorithm 1:
// almost-clique decomposition, ColorSparse over sparse/uneven nodes,
// ColorDense over the almost-cliques. Only nodes of degree at least
// tun.LowDeg are scheduled; the paper hands the rest to the deterministic
// low-degree algorithm (package lowdeg), and here they fall through to
// the residue. LowDeg filters the sparse/uneven, dense and outlier bases,
// and a clique is kept for dense/putaside and dense/synch only if its
// maximum degree Δ_C reaches LowDeg (almost-clique members have degree
// about |C|). BuildResult.Cliques lists the kept cliques.
//
// So when the maximum degree is below LowDeg every base is empty, and the
// build computes no parameters, decomposition, clique roles or Vstart: it
// returns the same step list, with the same names and τ, over empty bases,
// so the schedule still accounts its LOCAL rounds, and leaves ACD,
// Cliques and Vstart empty.
func BuildColorMiddle(st *State, tun Tunables) *BuildResult {
	g := st.In.G
	tun = tun.WithDefaults(g.N(), g.MaxDegree())
	ell := ellFor(g.MaxDegree())
	res := &BuildResult{Tunables: tun}
	var b middleBases
	if g.MaxDegree() >= tun.LowDeg {
		res.ACD = acd.ComputePar(st.Par, st.In, tun.ACD)
		if st.Par.Err() != nil {
			// Cancelled mid-decomposition: the ACD is incomplete, so skip
			// the schedule entirely. Drivers observe the cancellation
			// through st.Par.Err / their runner and never execute the
			// empty schedule.
			return res
		}
		b = computeMiddleBases(st, res.ACD, ell, tun.LowDeg)
		res.Cliques, res.Vstart = b.cliques, b.vstart
	}
	maxPal := maxPalette(st.In)

	var steps []Step
	// --- ColorSparse (Algorithm 5) ---
	// 1. Vstart identified above. 2. GenerateSlack on (sparse∪uneven)\start.
	steps = append(steps, stepGenerateSlack("sparse/genslack", b.rest, maxPal))
	// 3. SlackColor Vstart (they rely on temporary slack from step 2's
	// still-uncolored neighbors). 4. SlackColor the rest.
	steps = append(steps, SlackColorSchedule("sparse/start", b.start, maxPal, tun)...)
	steps = append(steps, SlackColorSchedule("sparse/rest", b.rest, maxPal, tun)...)

	// --- ColorDense (Algorithm 7) ---
	// 1. Leaders/outliers computed above. 2. GenerateSlack on dense nodes.
	steps = append(steps, stepGenerateSlack("dense/genslack", b.dense, maxPal))
	// 3. Put-aside sets for low-slack cliques.
	steps = append(steps, stepPutAside("dense/putaside", b.cliques, ell))
	// 4. SlackColor the outliers.
	steps = append(steps, SlackColorSchedule("dense/outliers", b.outliers, maxPal, tun)...)
	// 5. SynchColorTrial for the inliers.
	steps = append(steps, stepSynch("dense/synch", b.cliques, maxPal))
	// 6. SlackColor Vdense \ P.
	steps = append(steps, SlackColorSchedule("dense/inliers", b.dense, maxPal, tun)...)

	res.Schedule = Schedule{
		Steps: steps,
		// 7. Leaders color the put-aside sets locally.
		Finisher: func(st *State) { ColorPutAside(st) },
	}
	return res
}

// middleBases are the participant bases of the ColorMiddle schedule, all
// restricted to nodes of degree at least LowDeg, and the analysis they
// were derived from.
type middleBases struct {
	start, rest     []int32 // Vstart and the other sparse/uneven nodes
	dense, outliers []int32
	cliques         []CliqueInfo // the cliques with Δ_C ≥ LowDeg
	vstart          VstartSets
}

// computeMiddleBases classifies the nodes of degree at least lowDeg by
// the decomposition a: clique roles (Lemma 22), Vstart (Section 5.2) and
// the sparse/uneven and dense bases.
func computeMiddleBases(st *State, a *acd.ACD, ell float64, lowDeg int) middleBases {
	g := st.In.G
	highDeg := func(v int32) bool { return g.Degree(v) >= lowDeg }
	var b middleBases
	b.cliques = slices.DeleteFunc(ComputeCliqueInfos(st.Par, g, a, ell), func(c CliqueInfo) bool {
		return c.MaxDeg < lowDeg
	})
	b.vstart = IdentifyVstart(st, a, lowDeg)

	var sparseUneven []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if !highDeg(v) {
			continue
		}
		switch a.Class[v] {
		case acd.Sparse, acd.Uneven:
			sparseUneven = append(sparseUneven, v)
		case acd.Dense:
			b.dense = append(b.dense, v)
		}
	}
	inStart := make(map[int32]bool, len(b.vstart.Start))
	for _, v := range b.vstart.Start {
		inStart[v] = true
	}
	for _, v := range sparseUneven {
		if inStart[v] {
			b.start = append(b.start, v)
		} else {
			b.rest = append(b.rest, v)
		}
	}
	for _, c := range b.cliques {
		for _, v := range c.Outliers {
			if highDeg(v) {
				b.outliers = append(b.outliers, v)
			}
		}
	}
	return b
}

// putAsideDen sets Algorithm 9's sampling resolution: probabilities are
// multiples of 1/(16·putAsideDen), and a low-slack clique needs one
// marked inlier per 4·putAsideDen live ones.
const putAsideDen = 4

// synchFailFrac is SynchColorTrial's SSP tolerance: a clique succeeds if
// at most this fraction of its live inliers remain uncolored (paper: O(t)
// with polylog t).
const synchFailFrac = 0.5

// stepPutAside wraps PutAsidePropose as a Step. Its participants are the
// live inliers of every low-slack clique in cliques, which BuildColorMiddle
// restricts to the cliques with Δ_C ≥ LowDeg. The sampling probability
// follows Algorithm 9: p_s = ℓ²/(48·Δ_C), realized per clique in units of
// 1/(16·putAsideDen); the Bits budget covers one Bernoulli draw.
// SSP (per Lemma 13): v succeeds iff its clique is not low-slack, or the
// proposed put-aside set of v's clique is non-trivial, or the clique is
// small enough not to need one.
func stepPutAside(name string, cliques []CliqueInfo, ell float64) Step {
	cliqueOf := map[int32]*CliqueInfo{}
	for i := range cliques {
		for _, v := range cliques[i].Members {
			cliqueOf[v] = &cliques[i]
		}
	}
	return Step{
		Name: name,
		Tau:  1,
		Bits: PutAsideBits(putAsideDen * 16),
		Participants: func(st *State) []int32 {
			var out []int32
			for i := range cliques {
				if !cliques[i].LowSlack {
					continue
				}
				for _, v := range cliques[i].Inliers {
					if st.Live(v) {
						out = append(out, v)
					}
				}
			}
			return out
		},
		Propose: func(st *State, parts []int32, src RandSource, sc *Scratch) Proposal {
			return PutAsidePropose(st, cliques, func(c *CliqueInfo) (int, int) {
				return PutAsideProb(ell, c.MaxDeg, putAsideDen*16)
			}, src, sc)
		},
		SSP: func(st *State, parts []int32, prop Proposal, v int32) bool {
			c := cliqueOf[v]
			if c == nil || !c.LowSlack {
				return true
			}
			live := 0
			marked := 0
			for _, u := range c.Inliers {
				if st.Live(u) {
					live++
					if prop.Mark != nil && prop.Mark.Test(int(u)) {
						marked++
					}
				}
			}
			// Small cliques do not need a put-aside set; larger ones need
			// at least one marked node per 4·putAsideDen live inliers.
			need := live / (4 * putAsideDen)
			return marked >= need
		},
	}
}

// stepSynch wraps SynchColorTrialPropose. Its participants are the live
// inliers of every clique in cliques (those with Δ_C ≥ LowDeg, see
// BuildColorMiddle) whose leader is uncolored; only the leaders read
// random bits. SSP (per Lemma 13 / [HKNT22, Lemma 7]): v succeeds iff at
// most synchFailFrac of its clique's live inliers remain uncolored under
// the proposal, or v is not a live inlier of any clique.
func stepSynch(name string, cliques []CliqueInfo, maxPal int) Step {
	maxClique := 1
	for _, c := range cliques {
		if len(c.Members) > maxClique {
			maxClique = len(c.Members)
		}
	}
	cliqueOf := map[int32]*CliqueInfo{}
	for i := range cliques {
		for _, v := range cliques[i].Inliers {
			cliqueOf[v] = &cliques[i]
		}
	}
	return Step{
		Name: name,
		Tau:  2,
		Bits: SynchColorTrialBits(maxClique, maxPal),
		Participants: func(st *State) []int32 {
			var out []int32
			for i := range cliques {
				leaderLive := !st.Colored(cliques[i].Leader)
				if !leaderLive {
					continue
				}
				for _, v := range cliques[i].Inliers {
					if st.Live(v) {
						out = append(out, v)
					}
				}
			}
			return out
		},
		Propose: func(st *State, parts []int32, src RandSource, sc *Scratch) Proposal {
			return SynchColorTrialPropose(st, cliques, src, sc)
		},
		SSP: func(st *State, parts []int32, prop Proposal, v int32) bool {
			c := cliqueOf[v]
			if c == nil {
				return true
			}
			live, fails := 0, 0
			for _, u := range c.Inliers {
				if !st.Live(u) || u == c.Leader {
					continue
				}
				live++
				if prop.Color[u] == d1lc.Uncolored {
					fails++
				}
			}
			return live == 0 || float64(fails) <= synchFailFrac*float64(live)
		},
	}
}

// ColorPutAside greedily colors every put-aside node from its maintained
// remaining palette (Algorithm 7 step 7: the leader collects the palettes
// of P_C and colors locally — put-aside sets are polylog-size and mutually
// non-adjacent, so one machine per clique suffices in MPC). Nodes whose
// palette was exhausted (possible only if the clique was misclassified)
// stay uncolored and fall through to the residual path.
func ColorPutAside(st *State) (colored, failed int) {
	for v := int32(0); v < int32(st.In.G.N()); v++ {
		if !st.PutAside[v] || st.Colored(v) {
			continue
		}
		var pick int32 = d1lc.Uncolored
		for _, c := range st.Rem[v] {
			ok := true
			for _, u := range st.In.G.Neighbors(v) {
				if st.Col.Colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				pick = c
				break
			}
		}
		if pick == d1lc.Uncolored {
			failed++
			continue
		}
		st.SetColor(v, pick)
		colored++
	}
	return colored, failed
}

// --- Randomized runner (Lemma 4) -------------------------------------------

// StepTrace records one executed step for the experiment tables.
type StepTrace struct {
	Name         string
	Participants int
	Colored      int
	SSPFailures  int
	LocalRounds  int
}

// RunStats aggregates a pipeline execution.
type RunStats struct {
	Steps       []StepTrace
	LocalRounds int
	Colored     int
}

// RunRandomized executes the schedule with fresh randomness (the
// randomized MPC algorithm of Lemma 4): propose with per-node fresh bits,
// apply, continue. SSP failures are recorded but nobody defers — the
// randomized analysis tolerates them via shattering. A cancelled st.Par
// stops the schedule between steps; the caller observes the cancellation
// through st.Par.Err and discards the partial stats.
func RunRandomized(st *State, sched Schedule, seed uint64) RunStats {
	var stats RunStats
	for i := range sched.Steps {
		if st.Par.Err() != nil {
			return stats
		}
		step := &sched.Steps[i]
		parts := step.Participants(st)
		tr := StepTrace{Name: step.Name, Participants: len(parts), LocalRounds: step.Tau}
		if len(parts) > 0 {
			src := FreshSource{Root: seed, Round: uint64(i), Bits: step.Bits}
			prop := step.Propose(st, parts, src, nil)
			tr.SSPFailures = len(step.Failures(st, parts, prop))
			tr.Colored = st.Apply(prop)
			stats.Colored += tr.Colored
		}
		st.Meter.Tick(step.Tau)
		stats.LocalRounds += step.Tau
		stats.Steps = append(stats.Steps, tr)
	}
	if sched.Finisher != nil {
		sched.Finisher(st)
		st.Meter.Tick(1)
		stats.LocalRounds++
	}
	return stats
}

// CleanupRounds runs plain TryRandomColor rounds over all live nodes until
// everything is colored or maxRounds is hit; it is the generic randomized
// finisher used by the standalone randomized solver for low-degree and
// leftover nodes. Returns the number of rounds executed.
func CleanupRounds(st *State, seed uint64, maxRounds int) int {
	maxPal := maxPalette(st.In)
	for r := 0; r < maxRounds; r++ {
		if st.Par.Err() != nil {
			return r
		}
		parts := st.LiveNodes(nil)
		if len(parts) == 0 {
			return r
		}
		src := FreshSource{Root: seed ^ 0xC1EA, Round: uint64(r), Bits: TryRandomColorBits(maxPal)}
		prop := TryRandomColorPropose(st, parts, src, nil)
		st.Apply(prop)
		st.Meter.Tick(2)
	}
	return maxRounds
}

// greedyCancelStride is how many nodes FinishGreedy walks between checks
// of its runner's context.
const greedyCancelStride = 4096

// FinishGreedy colors every remaining uncolored node (deferred, put-aside
// leftovers, cleanup survivors) sequentially in node order — the "collect
// the residue on one machine" step that makes the solver unconditionally
// correct. Each node takes the first color of Rem[v] that no colored
// neighbor holds. Rem[v] is sorted (palettes are strictly sorted, and
// SetColor removes colors in place), so each colored neighbor's color is
// found by binary search and marked, in O(deg(v)·log|Rem[v]|).
//
// FinishGreedy is the state's last writer: it writes each color directly
// and updates the live set and live degrees as SetColor does, but it does
// not remove the color from its neighbors' Rem, which are stale
// afterwards. The coloring is the one SetColor's maintained palettes would
// give, since those exclude exactly the colors of colored neighbors and
// keep palette order. A cancelled st.Par stops it within
// greedyCancelStride nodes with the context's error.
func FinishGreedy(st *State) error {
	g := st.In.G
	colors := st.Col.Colors
	// mark[i] == v+1 records that Rem[v][i] is held by a colored neighbor
	// of v; the per-node stamp makes clearing between nodes unnecessary.
	mark := make([]int32, maxPalette(st.In))
	for v := int32(0); v < int32(g.N()); v++ {
		if v%greedyCancelStride == 0 {
			if err := st.Par.Err(); err != nil {
				return err
			}
		}
		if colors[v] != d1lc.Uncolored {
			continue
		}
		rem := st.Rem[v]
		stamp := v + 1
		for _, u := range g.Neighbors(v) {
			if c := colors[u]; c != d1lc.Uncolored {
				if i, ok := slices.BinarySearch(rem, c); ok {
					mark[i] = stamp
				}
			}
		}
		i := 0
		for i < len(rem) && mark[i] == stamp {
			i++
		}
		if i == len(rem) {
			return fmt.Errorf("hknt: greedy finish failed at node %d", v)
		}
		colors[v] = rem[i]
		if st.Live(v) { // deferred and put-aside nodes already left degrees
			st.live.Clear(int(v))
			for _, u := range g.Neighbors(v) {
				st.liveDeg[u]--
			}
		}
	}
	return nil
}

// RandomizedColor is the end-to-end randomized D1LC solver (Lemma 4's
// algorithm): ColorMiddle's pipeline on the mid/high-degree nodes, plain
// randomized trials for the rest, greedy for stragglers. The returned
// coloring is always complete and proper; stats expose the round counts
// and per-step traces.
// r scopes the trials' parallel loops (nil = process default).
func RandomizedColor(r *par.Runner, in *d1lc.Instance, seed uint64, tun Tunables) (*d1lc.Coloring, *State, RunStats, error) {
	st := NewState(in)
	st.Par = r
	build := BuildColorMiddle(st, tun)
	stats := RunRandomized(st, build.Schedule, seed)
	CleanupRounds(st, seed, 4*approxLog2(in.G.N()+2))
	if err := st.Par.Err(); err != nil {
		return nil, st, stats, err
	}
	if err := FinishGreedy(st); err != nil {
		return nil, st, stats, err
	}
	return st.Col, st, stats, nil
}

func approxLog2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
