package deframe

import (
	"context"
	"fmt"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
)

// collectSteps flattens a report's steps across recursion levels.
func collectSteps(r *Report) []StepReport {
	out := append([]StepReport(nil), r.Steps...)
	if r.Recursed != nil {
		out = append(out, collectSteps(r.Recursed)...)
	}
	return out
}

// namedInstance is a test instance with its subtest name.
type namedInstance struct {
	name string
	in   *d1lc.Instance
}

// tableScoringCases are the instances of the end-to-end differential
// tests: TestTableScoringMatchesNaive and the seed-transcript replay.
func tableScoringCases() []namedInstance {
	return []namedInstance{
		{"gnp", d1lc.TrivialPalettes(graph.Gnp(140, 0.05, 3))},
		{"cliques", d1lc.TrivialPalettes(graph.CliquesPlusMatching(3, 12, 2))},
		{"mixed", d1lc.TrivialPalettes(graph.Mixed(150, 5))},
		{"random-pal", d1lc.RandomPalettes(graph.Gnp(110, 0.08, 4), 2, 80, 5)},
	}
}

// TestTableScoringMatchesNaive is the end-to-end differential test: the
// incremental engine and the naive oracle must agree bit-for-bit on every
// step's chosen seed, score and certificate, and on the final coloring —
// across graphs, both PRG families, and both selection strategies.
func TestTableScoringMatchesNaive(t *testing.T) {
	for _, tc := range tableScoringCases() {
		for _, bitwise := range []bool{false, true} {
			for _, prgKind := range []PRGKind{PRGKWise, PRGNisan} {
				name := fmt.Sprintf("%s/bitwise=%v/prg=%d", tc.name, bitwise, prgKind)
				t.Run(name, func(t *testing.T) {
					o := smallOpts()
					o.Bitwise = bitwise
					o.PRG = prgKind
					colT, repT, errT := Run(context.Background(), tc.in, o)
					colN, repN, errN := runNaive(tc.in, o)
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
// leak scheduling order into results. Every StepReport — Evals, floor
// exit and certificate included — must be the same at every worker
// count, flat and bitwise.
func TestTableScoringDeterministicAcrossWorkerCounts(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(140, 6))
	for _, bitwise := range []bool{false, true} {
		o := smallOpts()
		o.Bitwise = bitwise
		ref, refRep, err := Run(context.Background(), in, o)
		if err != nil {
			t.Fatal(err)
		}
		refSteps := collectSteps(refRep)
		for _, w := range []int{1, 2, 3, 7} {
			o.Par = par.NewRunner(w)
			col, rep, err := Run(context.Background(), in, o)
			if err != nil {
				t.Fatal(err)
			}
			for v := range col.Colors {
				if col.Colors[v] != ref.Colors[v] {
					t.Fatalf("bitwise=%v workers=%d: coloring diverged at %d", bitwise, w, v)
				}
			}
			steps := collectSteps(rep)
			if len(steps) != len(refSteps) {
				t.Fatalf("bitwise=%v workers=%d: %d steps, want %d", bitwise, w, len(steps), len(refSteps))
			}
			for i := range steps {
				if steps[i] != refSteps[i] {
					t.Fatalf("bitwise=%v workers=%d: step %d diverged:\n%+v\nwant %+v", bitwise, w, i, steps[i], refSteps[i])
				}
			}
		}
	}
}

// TestBitwiseEvalReduction verifies the acceptance bound on the live
// pipeline: with d seed bits the engine path spends at most 2^d + d
// scorer invocations per step, where the classical bitwise method spends
// 2^(d+1)−2 (condexp's TestTableBitwiseEvalBudget pins that count). On
// the flat path, a step whose Score is its floor stopped there and
// reports SeedChosen + 1 evaluations, every other step reports 2^d, and
// at least one step of the instance reaches its floor.
func TestBitwiseEvalReduction(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(120, 0.06, 8))
	o := smallOpts()
	o.Bitwise = true
	_, repT, err := Run(context.Background(), in, o)
	if err != nil {
		t.Fatal(err)
	}
	d := o.SeedBits
	checked := 0
	for _, s := range collectSteps(repT) {
		if s.Participants == 0 {
			continue
		}
		checked++
		if got, budget := s.Evals, (1<<d)+d; got > budget {
			t.Fatalf("step %s: table evals %d exceed budget %d", s.Name, got, budget)
		}
	}
	if checked == 0 {
		t.Fatal("no populated steps to check")
	}

	o.Bitwise = false
	_, repF, err := Run(context.Background(), in, o)
	if err != nil {
		t.Fatal(err)
	}
	atFloor := 0
	for _, s := range collectSteps(repF) {
		if s.Participants == 0 {
			continue
		}
		want := 1 << d
		if s.Score == s.Floor {
			want = int(s.SeedChosen) + 1
			atFloor++
		}
		if s.Evals != want || s.AtFloor != (s.Score == s.Floor) {
			t.Fatalf("step %s: score %d, floor %d, seed %d: %d evals (at floor %v), want %d",
				s.Name, s.Score, s.Floor, s.SeedChosen, s.Evals, s.AtFloor, want)
		}
	}
	if atFloor == 0 {
		t.Fatal("no flat step reached its floor")
	}
}

// TestTableScoringMatchesNaiveSharedChunks runs every step of a schedule
// under the fabricated chunk layout chunkOf[v] = v mod 3, so each live
// chunk has many readers — one seed's through its worker's lazy cursor,
// and several seeds' at once on different workers — and the engine must
// still agree with the naive oracle, which reads one eager expansion, on
// every step's seed, score, certificate and outcome and on the final
// coloring: across workers 1, 4 and the process default, both PRG
// families and both selection strategies (run under -race in CI).
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
					stT, stN := hknt.NewState(tc.in), hknt.NewState(tc.in)
					stT.Par, stN.Par = o.Par, o.Par
					stepsT := hknt.BuildColorMiddle(stT, o.Tunables).Schedule.Steps
					stepsN := hknt.BuildColorMiddle(stN, o.Tunables).Schedule.Steps
					ran := 0
					for i := range stepsT {
						a, errT := derandomizeStep(stT, &stepsT[i], chunkOf, 3, o, selectByEngine)
						b, errN := derandomizeStep(stN, &stepsN[i], chunkOf, 3, o, selectNaive)
						if errT != nil || errN != nil {
							t.Fatalf("%s: errs: table=%v naive=%v", name, errT, errN)
						}
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
