package deframe

import (
	"fmt"
	"testing"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// naiveScorer is the oracle's objective: a fresh eager expansion, a
// scratch-free Propose and Step.Score per seed.
func naiveScorer(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int) condexp.Scorer {
	return func(seed uint64) int64 {
		src, err := prg.NewChunkedSource(gen, seed, chunkOf, numChunks, step.Bits)
		if err != nil {
			// Generator too short is a construction bug; make it loud.
			panic(fmt.Sprintf("deframe: %v", err))
		}
		return step.Score(st, parts, step.Propose(st, parts, src, nil))
	}
}

// selectNaive is the seedSelector the engine is tested against: Select
// over naiveScorer with the step's floor, then one eager, scratch-free
// re-proposal of the selected seed.
func selectNaive(st *hknt.State, step *hknt.Step, parts []int32, gen prg.PRG, chunkOf []int32, numChunks int, o Options) (condexp.Result, hknt.Proposal, error) {
	res, err := condexp.Select(o.Par, o.SeedBits, o.Bitwise, step.Floor(parts), naiveScorer(st, step, parts, gen, chunkOf, numChunks))
	if err != nil {
		return condexp.Result{}, hknt.Proposal{}, err
	}
	src, _ := prg.NewChunkedSource(gen, res.Seed, chunkOf, numChunks, step.Bits)
	return res, step.Propose(st, parts, src, nil), nil
}

// runNaive is Run with every step's seed selected by the naive oracle.
func runNaive(in *d1lc.Instance, o Options) (*d1lc.Coloring, *Report, error) {
	return run(in, o.withDefaults(in.G.MaxDegree()), maxDepth, selectNaive)
}

// TestStepEngineSeedMajorMatchesChunkMajorOracle pins the step engine to
// the naive oracle seed by seed: for every seed, the engine's pooled,
// lazily expanded score equals naiveScorer's fresh eager one, and both
// selection strategies equal selectNaive's in result and in the committed
// proposal (colors, win mask and put-aside marks) — across workers 1, 4
// and the process default (run under -race in CI), on both objectives
// (−wins, SSP == nil, and SSP failures) and on a schedule step that
// marks nodes (dense/putaside). The name is kept from the chunk-major
// table comparison this check replaced.
func TestStepEngineSeedMajorMatchesChunkMajorOracle(t *testing.T) {
	mixed := d1lc.TrivialPalettes(graph.Mixed(110, 5))
	n := mixed.G.N()
	ssp := func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
		return prop.Color[v] != d1lc.Uncolored
	}
	trc := func(ssp func(*hknt.State, []int32, hknt.Proposal, int32) bool) func(*hknt.State) hknt.Step {
		return func(*hknt.State) hknt.Step {
			return hknt.Step{
				Name:         "trc",
				Tau:          2,
				Bits:         hknt.TryRandomColorBits(n),
				Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
				Propose:      hknt.TryRandomColorPropose,
				SSP:          ssp,
			}
		}
	}
	// putAside is the dense/putaside step of the instance's schedule.
	putAside := func(st *hknt.State) hknt.Step {
		for _, step := range hknt.BuildColorMiddle(st, hknt.Tunables{LowDeg: 4}).Schedule.Steps {
			if step.Name == "dense/putaside" {
				return step
			}
		}
		t.Fatal("schedule has no dense/putaside step")
		return hknt.Step{}
	}
	for _, tc := range []struct {
		name  string
		in    *d1lc.Instance
		step  func(*hknt.State) hknt.Step
		marks bool // some committed proposal must carry put-aside marks
	}{
		{"win-mask", mixed, trc(nil), false}, // SSP == nil: −wins
		{"ssp", mixed, trc(ssp), false},      // SSP failures
		{"putaside", d1lc.TrivialPalettes(graph.CliquesPlusMatching(3, 20, 2)), putAside, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := hknt.NewState(tc.in)
			step := tc.step(st)
			if marked := matchOracle(t, st, &step); tc.marks && !marked {
				t.Fatal("no selected proposal marks a node")
			}
		})
	}
}

// TestStepEngineScratchOnParticipantSubsetMatchesOracle runs the three
// steps whose conflict passes the engine narrows to participant arcs
// (TryRandomColor, GenerateSlack, MultiTrial) with the nodes of degree at
// least LowDeg of a small Chung–Lu instance as participants: a strict
// subset whose members have neighbours both inside and outside it. The
// engine's bound Scratch must match the naive oracle's full scans seed by
// seed and in the committed proposal, flat and bitwise, at workers 1, 4
// and the process default.
func TestStepEngineScratchOnParticipantSubsetMatchesOracle(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.ChungLu(300, 2.5, 8, 1))
	g := in.G
	lowDeg := hknt.Tunables{}.WithDefaults(g.N(), 0).LowDeg
	hub := func(v int32) bool { return g.Degree(v) >= lowDeg }
	maxPal := g.MaxDegree() + 1
	const x = 3
	for _, step := range []hknt.Step{
		{Name: "trc", Tau: 2, Bits: hknt.TryRandomColorBits(maxPal), Propose: hknt.TryRandomColorPropose},
		{Name: "genslack", Tau: 1, Bits: hknt.GenerateSlackBits(maxPal), Propose: hknt.GenerateSlackPropose},
		{Name: "multitrial", Tau: 2, Bits: hknt.MultiTrialBits(x, maxPal),
			Propose: func(st *hknt.State, parts []int32, src hknt.RandSource, sc *hknt.Scratch) hknt.Proposal {
				return hknt.MultiTrialPropose(st, parts, x, src, sc)
			}},
	} {
		t.Run(step.Name, func(t *testing.T) {
			st := hknt.NewState(in)
			step.Participants = func(st *hknt.State) []int32 { return st.LiveNodes(hub) }
			inner, outer := 0, 0
			for _, v := range step.Participants(st) {
				for _, u := range g.Neighbors(v) {
					if hub(u) {
						inner++
					} else {
						outer++
					}
				}
			}
			if inner == 0 || outer == 0 {
				t.Fatalf("participants have %d arcs among themselves and %d out, want both", inner, outer)
			}
			matchOracle(t, st, &step)
		})
	}
}

// matchOracle pins the step engine to the naive oracle on one step of st:
// every seed's score, and each selection's result and committed proposal
// (flat and bitwise, at workers 1, 4 and the process default, against the
// naive selection at the process default). It also holds the selected
// seed and score to SelectTotals (flat) or SelectTotalsBitwise (bitwise)
// over every seed's naive score, so a walk that stops at the step's floor
// is checked against full enumeration without going through Select. It
// reports whether any committed proposal marks a node.
func matchOracle(t *testing.T, st *hknt.State, step *hknt.Step) (marked bool) {
	t.Helper()
	g := st.In.G
	o := Options{SeedBits: 6}.withDefaults(g.MaxDegree())
	chunkOf, num, _ := chunkAssignment(nil, g, 4, 1_000_000)
	parts := step.Participants(st)
	if len(parts) == 0 {
		t.Fatalf("step %s has no participants", step.Name)
	}
	gen := buildPRG(o, num, step.Bits)
	naive := naiveScorer(st, step, parts, gen, chunkOf, num)

	eng := newStepEngine(st, step, parts, gen, chunkOf, num)
	scores := make([]int64, 1<<o.SeedBits)
	for seed := range scores {
		scores[seed] = naive(uint64(seed))
		if got := eng.score(uint64(seed)); got != scores[seed] {
			t.Fatalf("seed %d: engine score %d, naive %d", seed, got, scores[seed])
		}
	}
	for _, bitwise := range []bool{false, true} {
		o.Bitwise = bitwise
		full := condexp.SelectTotals(scores)
		if bitwise {
			full = condexp.SelectTotalsBitwise(scores, o.SeedBits)
		}
		want, b, err := selectNaive(st, step, parts, gen, chunkOf, num, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 0} {
			o.Par = par.NewRunner(w)
			got, a, err := selectByEngine(st, step, parts, gen, chunkOf, num, o)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seed != full.Seed || got.Score != full.Score {
				t.Fatalf("w=%d bitwise=%v: engine selected (%d, %d), full enumeration (%d, %d)",
					w, bitwise, got.Seed, got.Score, full.Seed, full.Score)
			}
			if got != want {
				t.Fatalf("w=%d bitwise=%v: engine %+v, naive %+v", w, bitwise, got, want)
			}
			if v, ok := proposalsDiffer(a, b); ok {
				t.Fatalf("w=%d bitwise=%v: proposals differ at node %d", w, bitwise, v)
			}
			marked = marked || a.Mark.Count() > 0
		}
	}
	return marked
}

// proposalsDiffer returns the first node whose color, win bit or put-aside
// mark differs between a and b; a nil Mark reads as no marks.
func proposalsDiffer(a, b hknt.Proposal) (int, bool) {
	if len(a.Color) != len(b.Color) {
		return 0, true
	}
	marked := func(m bitset.Mask, v int) bool { return m != nil && m.Test(v) }
	for v := range a.Color {
		if a.Color[v] != b.Color[v] || a.Win.Test(v) != b.Win.Test(v) || marked(a.Mark, v) != marked(b.Mark, v) {
			return v, true
		}
	}
	return 0, false
}
