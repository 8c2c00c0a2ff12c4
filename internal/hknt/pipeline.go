package hknt

import (
	"fmt"

	"parcolor/internal/par"

	"parcolor/internal/acd"
	"parcolor/internal/d1lc"
)

// This file assembles the ColorSparse (Algorithm 5), ColorDense
// (Algorithm 7) and ColorMiddle (Algorithm 1) schedules and provides the
// randomized runner of Lemma 4: the pipeline that package deframe
// derandomizes step by step.

// BuildResult bundles a schedule with the analysis artifacts it was built
// from, which the experiment harness reports.
type BuildResult struct {
	Schedule Schedule
	ACD      *acd.ACD
	Cliques  []CliqueInfo
	Vstart   VstartSets
	Tunables Tunables
}

// BuildColorMiddle constructs the full pre-shattering schedule of
// Algorithm 1 for the nodes of degree ≥ tun.LowDeg: almost-clique
// decomposition, ColorSparse over sparse/uneven nodes, ColorDense over the
// almost-cliques. Low-degree nodes are left untouched (the paper hands
// them to the deterministic low-degree algorithm, package lowdeg).
func BuildColorMiddle(st *State, tun Tunables) *BuildResult {
	in := st.In
	g := in.G
	tun = tun.WithDefaults(g.N(), g.MaxDegree())
	maxPal := maxPalette(in)

	a := acd.ComputePar(st.Par, in, tun.ACD)
	if st.Par.Err() != nil {
		// Cancelled mid-decomposition: the ACD is incomplete, so skip the
		// schedule entirely. Drivers observe the cancellation through
		// st.Par.Err / their runner and never execute the empty schedule.
		return &BuildResult{ACD: a, Tunables: tun}
	}
	ell := ellFor(g.MaxDegree())
	cliques := ComputeCliqueInfos(st.Par, g, a, ell)
	vs := IdentifyVstart(st, a)

	highDeg := func(v int32) bool { return g.Degree(v) >= tun.LowDeg }
	classOf := func(v int32) acd.Class { return a.Class[v] }

	// Participant bases (restricted to the middle degree range).
	var sparseUneven, dense []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if !highDeg(v) {
			continue
		}
		switch classOf(v) {
		case acd.Sparse, acd.Uneven:
			sparseUneven = append(sparseUneven, v)
		case acd.Dense:
			dense = append(dense, v)
		}
	}
	inStart := make(map[int32]bool, len(vs.Start))
	for _, v := range vs.Start {
		if highDeg(v) {
			inStart[v] = true
		}
	}
	var start, rest []int32
	for _, v := range sparseUneven {
		if inStart[v] {
			start = append(start, v)
		} else {
			rest = append(rest, v)
		}
	}
	var outliers []int32
	for _, c := range cliques {
		for _, v := range c.Outliers {
			if highDeg(v) {
				outliers = append(outliers, v)
			}
		}
	}

	var steps []Step
	// --- ColorSparse (Algorithm 5) ---
	// 1. Vstart identified above. 2. GenerateSlack on (sparse∪uneven)\start.
	steps = append(steps, stepGenerateSlack("sparse/genslack", rest, maxPal))
	// 3. SlackColor Vstart (they rely on temporary slack from step 2's
	// still-uncolored neighbors). 4. SlackColor the rest.
	steps = append(steps, SlackColorSchedule("sparse/start", start, maxPal, tun)...)
	steps = append(steps, SlackColorSchedule("sparse/rest", rest, maxPal, tun)...)

	// --- ColorDense (Algorithm 7) ---
	// 1. Leaders/outliers computed above. 2. GenerateSlack on dense nodes.
	steps = append(steps, stepGenerateSlack("dense/genslack", dense, maxPal))
	// 3. Put-aside sets for low-slack cliques.
	steps = append(steps, stepPutAside("dense/putaside", cliques, ell))
	// 4. SlackColor the outliers.
	steps = append(steps, SlackColorSchedule("dense/outliers", outliers, maxPal, tun)...)
	// 5. SynchColorTrial for the inliers.
	steps = append(steps, stepSynch("dense/synch", cliques, maxPal))
	// 6. SlackColor Vdense \ P.
	steps = append(steps, SlackColorSchedule("dense/inliers", dense, maxPal, tun)...)

	sched := Schedule{
		Steps: steps,
		// 7. Leaders color the put-aside sets locally.
		Finisher: func(st *State) { ColorPutAside(st) },
	}
	return &BuildResult{Schedule: sched, ACD: a, Cliques: cliques, Vstart: vs, Tunables: tun}
}

// putAsideDen sets Algorithm 9's sampling resolution: probabilities are
// multiples of 1/(16·putAsideDen), and a low-slack clique needs one
// marked inlier per 4·putAsideDen live ones.
const putAsideDen = 4

// synchFailFrac is SynchColorTrial's SSP tolerance: a clique succeeds if
// at most this fraction of its live inliers remain uncolored (paper: O(t)
// with polylog t).
const synchFailFrac = 0.5

// stepPutAside wraps PutAsidePropose as a Step. The sampling probability
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

// stepSynch wraps SynchColorTrialPropose. SSP (per Lemma 13 /
// [HKNT22, Lemma 7]): v succeeds iff at most synchFailFrac of its clique's
// live inliers remain uncolored under the proposal, or v is not a live
// inlier of any clique.
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
		// Leaders draw the permutation bits but need not be participants
		// themselves (an uncolored leader may be deferred or put aside):
		// declare them so the sparse-chunk engine expands their chunks.
		Readers: func(st *State) []int32 {
			var out []int32
			for i := range cliques {
				if !st.Colored(cliques[i].Leader) {
					out = append(out, cliques[i].Leader)
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

// FinishGreedy colors every remaining uncolored node (deferred, put-aside
// leftovers, cleanup survivors) sequentially — the "collect the residue on
// one machine" step that makes the solver unconditionally correct.
func FinishGreedy(st *State) error {
	for v := int32(0); v < int32(st.In.G.N()); v++ {
		if st.Colored(v) {
			continue
		}
		assigned := false
		for _, c := range st.Rem[v] {
			ok := true
			for _, u := range st.In.G.Neighbors(v) {
				if st.Col.Colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				st.SetColor(v, c)
				assigned = true
				break
			}
		}
		if !assigned {
			return fmt.Errorf("hknt: greedy finish failed at node %d", v)
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
