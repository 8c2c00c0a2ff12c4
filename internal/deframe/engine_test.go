package deframe

import (
	"context"
	"fmt"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// collectSteps flattens a report's steps across recursion levels.
func collectSteps(r *Report) []StepReport {
	out := append([]StepReport(nil), r.Steps...)
	if r.Recursed != nil {
		out = append(out, collectSteps(r.Recursed)...)
	}
	return out
}

// TestTableScoringMatchesNaive is the end-to-end differential test: the
// incremental engine and the naive oracle must agree bit-for-bit on every
// step's chosen seed, score and certificate, and on the final coloring —
// across graphs, both PRG families, and both selection strategies.
func TestTableScoringMatchesNaive(t *testing.T) {
	cases := []struct {
		name string
		in   *d1lc.Instance
	}{
		{"gnp", d1lc.TrivialPalettes(graph.Gnp(140, 0.05, 3))},
		{"cliques", d1lc.TrivialPalettes(graph.CliquesPlusMatching(3, 12, 2))},
		{"mixed", d1lc.TrivialPalettes(graph.Mixed(150, 5))},
		{"random-pal", d1lc.RandomPalettes(graph.Gnp(110, 0.08, 4), 2, 80, 5)},
	}
	for _, tc := range cases {
		for _, bitwise := range []bool{false, true} {
			for _, prgKind := range []PRGKind{PRGKWise, PRGNisan} {
				name := fmt.Sprintf("%s/bitwise=%v/prg=%d", tc.name, bitwise, prgKind)
				t.Run(name, func(t *testing.T) {
					o := smallOpts()
					o.Bitwise = bitwise
					o.PRG = prgKind
					oNaive := o
					oNaive.NaiveScoring = true
					colT, repT, errT := Run(context.Background(), tc.in, o)
					colN, repN, errN := Run(context.Background(), tc.in, oNaive)
					if errT != nil || errN != nil {
						t.Fatalf("errs: table=%v naive=%v", errT, errN)
					}
					for v := range colT.Colors {
						if colT.Colors[v] != colN.Colors[v] {
							t.Fatalf("colorings diverge at node %d: %d vs %d",
								v, colT.Colors[v], colN.Colors[v])
						}
					}
					stepsT, stepsN := collectSteps(repT), collectSteps(repN)
					if len(stepsT) != len(stepsN) {
						t.Fatalf("step counts diverge: %d vs %d", len(stepsT), len(stepsN))
					}
					for i := range stepsT {
						a, b := stepsT[i], stepsN[i]
						if a.SeedChosen != b.SeedChosen || a.Score != b.Score ||
							a.MeanUpper != b.MeanUpper || a.Deferred != b.Deferred ||
							a.Colored != b.Colored || a.Participants != b.Participants {
							t.Fatalf("step %d (%s) diverges:\ntable %+v\nnaive %+v", i, a.Name, a, b)
						}
					}
					if err := d1lc.Verify(tc.in, colT); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestTableScoringDeterministicAcrossWorkerCounts pins the engine's output
// to the worker count: pooled scratch and the parallel seed walk must not
// leak scheduling order into results.
func TestTableScoringDeterministicAcrossWorkerCounts(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(140, 6))
	ref, refRep, err := Run(context.Background(), in, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 7} {
		o := smallOpts()
		o.Par = par.NewRunner(w)
		col, rep, err := Run(context.Background(), in, o)
		if err != nil {
			t.Fatal(err)
		}
		for v := range col.Colors {
			if col.Colors[v] != ref.Colors[v] {
				t.Fatalf("workers=%d: coloring diverged at %d", w, v)
			}
		}
		if rep.TotalDeferred() != refRep.TotalDeferred() {
			t.Fatalf("workers=%d: deferral accounting diverged", w)
		}
	}
}

// TestBitwiseEvalReduction verifies the acceptance bound on the live
// pipeline: with d seed bits the naive bitwise path spends 2^(d+1)−2
// scorer invocations per step while the engine path spends 2^d.
func TestBitwiseEvalReduction(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(120, 0.06, 8))
	o := smallOpts()
	o.Bitwise = true
	oNaive := o
	oNaive.NaiveScoring = true
	_, repT, err := Run(context.Background(), in, o)
	if err != nil {
		t.Fatal(err)
	}
	_, repN, err := Run(context.Background(), in, oNaive)
	if err != nil {
		t.Fatal(err)
	}
	d := o.SeedBits
	stepsT, stepsN := collectSteps(repT), collectSteps(repN)
	checked := 0
	for i := range stepsT {
		if stepsT[i].Participants == 0 {
			continue
		}
		checked++
		if got, budget := stepsT[i].Evals, (1<<d)+d; got > budget {
			t.Fatalf("step %s: table evals %d exceed budget %d", stepsT[i].Name, got, budget)
		}
		if got, want := stepsN[i].Evals, 1<<(d+1)-2; got != want {
			t.Fatalf("step %s: naive bitwise evals %d, want %d", stepsN[i].Name, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no populated steps to check")
	}
}

// TestEngineProposalCacheHitsOnFlat checks the flat path commits the cached
// proposal: the engine's best-seen clone must equal a fresh re-proposal of
// the selected seed.
func TestEngineProposalCacheHitsOnFlat(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Complete(14))
	st := hknt.NewState(in)
	step := hknt.Step{
		Name:         "trc",
		Tau:          2,
		Bits:         hknt.TryRandomColorBits(14),
		Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
		Propose:      hknt.TryRandomColorPropose,
		SSP: func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
			return prop.Color[v] != d1lc.Uncolored
		},
	}
	o := Options{SeedBits: 6}.withDefaults(13)
	chunkOf, num, _ := chunkAssignment(nil, in.G, 4, 1_000_000)
	parts := step.Participants(st)
	gen := buildPRG(o, num, step.Bits)
	eng := newStepEngine(st, &step, parts, gen, chunkOf, num)
	res, prop, err := eng.selectSeedTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.best.Matches(res.Seed) {
		t.Fatalf("flat winner %d not cached", res.Seed)
	}
	// Compare the cached proposal against an independent re-proposal
	// through the naive source.
	src, err := prg.NewChunkedSource(gen, res.Seed, chunkOf, num, step.Bits)
	if err != nil {
		t.Fatal(err)
	}
	want := step.Propose(st, parts, src, nil)
	for v := range want.Color {
		if prop.Color[v] != want.Color[v] {
			t.Fatalf("cached proposal differs at node %d", v)
		}
	}
}

// TestTableScoringMatchesNaiveSharedChunks runs every step of a schedule
// under the fabricated chunk layout chunkOf[v] = v mod 3, so each live
// chunk has many readers — each through its own lazy cursor, several at
// once under the trials' inner fan-out — and the engine must still
// agree with the naive oracle, which reads one eager expansion, on every
// step's seed, score, certificate and outcome and on the final coloring:
// across workers 1, 4 and the process default, both PRG families and
// both selection strategies (run under -race in CI).
func TestTableScoringMatchesNaiveSharedChunks(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *d1lc.Instance
	}{
		{"gnp", d1lc.TrivialPalettes(graph.Gnp(140, 0.05, 3))},
		{"cliques", d1lc.TrivialPalettes(graph.CliquesPlusMatching(3, 12, 2))},
	} {
		n := tc.in.G.N()
		chunkOf := make([]int32, n)
		for v := range chunkOf {
			chunkOf[v] = int32(v % 3)
		}
		for _, workers := range []int{1, 4, 0} {
			for _, prgKind := range []PRGKind{PRGKWise, PRGNisan} {
				for _, bitwise := range []bool{false, true} {
					name := fmt.Sprintf("%s/w=%d/prg=%d/bitwise=%v", tc.name, workers, prgKind, bitwise)
					o := smallOpts()
					o.PRG, o.Bitwise, o.Par = prgKind, bitwise, par.NewRunner(workers)
					o = o.withDefaults(tc.in.G.MaxDegree())
					oNaive := o
					oNaive.NaiveScoring = true
					stT, stN := hknt.NewState(tc.in), hknt.NewState(tc.in)
					stT.Par, stN.Par = o.Par, o.Par
					stepsT := hknt.BuildColorMiddle(stT, o.Tunables).Schedule.Steps
					stepsN := hknt.BuildColorMiddle(stN, o.Tunables).Schedule.Steps
					ran := 0
					for i := range stepsT {
						a, errT := DerandomizeStep(stT, &stepsT[i], chunkOf, 3, o)
						b, errN := DerandomizeStep(stN, &stepsN[i], chunkOf, 3, oNaive)
						if errT != nil || errN != nil {
							t.Fatalf("%s: errs: table=%v naive=%v", name, errT, errN)
						}
						a.Evals, b.Evals = 0, 0 // the naive bitwise walk spends more
						if a != b {
							t.Fatalf("%s: step %d (%s) diverges:\ntable %+v\nnaive %+v", name, i, a.Name, a, b)
						}
						if a.Participants > 0 {
							ran++
						}
					}
					if ran == 0 {
						t.Fatalf("%s: no step had participants", name)
					}
					for v := range stT.Col.Colors {
						if stT.Col.Colors[v] != stN.Col.Colors[v] {
							t.Fatalf("%s: colorings diverge at node %d", name, v)
						}
					}
					stT.Release()
					stN.Release()
				}
			}
		}
	}
}
