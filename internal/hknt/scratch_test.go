package hknt

import (
	"sync"
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
)

// propEqual compares proposals field-for-field, including the win-mask
// invariant on both sides.
func propEqual(t *testing.T, a, b Proposal, label string) {
	t.Helper()
	for v := range a.Color {
		if a.Color[v] != b.Color[v] {
			t.Fatalf("%s: Color[%d] = %d vs %d", label, v, a.Color[v], b.Color[v])
		}
		if a.Win.Test(v) != (a.Color[v] != d1lc.Uncolored) {
			t.Fatalf("%s: Win[%d] desynced from Color", label, v)
		}
		if a.Win.Test(v) != b.Win.Test(v) {
			t.Fatalf("%s: Win[%d] differs", label, v)
		}
	}
	if (a.Mark == nil) != (b.Mark == nil) {
		t.Fatalf("%s: Mark presence differs", label)
	}
	if a.Mark != nil {
		for v := range a.Color {
			if a.Mark.Test(v) != b.Mark.Test(v) {
				t.Fatalf("%s: Mark[%d] differs", label, v)
			}
		}
	}
}

// TestScratchReuseBitIdentical runs every trial repeatedly on one Scratch,
// interleaving different trial kinds, and checks each proposal equals the
// allocate-fresh reference: reuse must leave no residue between calls.
func TestScratchReuseBitIdentical(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Mixed(120, 3))
	st := NewState(in)
	parts := st.LiveNodes(nil)
	sc := NewScratch()
	for round := 0; round < 5; round++ {
		seed := uint64(round)
		srcTRC := FreshSource{Root: seed, Round: 1, Bits: 512}
		withSc := TryRandomColorPropose(st, parts, srcTRC, sc)
		fresh := TryRandomColorPropose(st, parts, srcTRC, nil)
		propEqual(t, withSc, fresh, "trc")

		srcMT := FreshSource{Root: seed, Round: 2, Bits: 2048}
		withSc = MultiTrialPropose(st, parts, 3, srcMT, sc)
		fresh = MultiTrialPropose(st, parts, 3, srcMT, nil)
		propEqual(t, withSc, fresh, "multitrial")

		srcGS := FreshSource{Root: seed, Round: 3, Bits: 512}
		withSc = GenerateSlackPropose(st, parts, srcGS, sc)
		fresh = GenerateSlackPropose(st, parts, srcGS, nil)
		propEqual(t, withSc, fresh, "genslack")

		// Multiple cliques per worker: the arena-backed live/permutation
		// carving must leave no residue between consecutive cliques.
		cliques := []CliqueInfo{
			{
				ID: 0, Members: parts[:8], Leader: parts[0],
				Inliers: parts[:8], LowSlack: true, MaxDeg: 8,
			},
			{
				ID: 1, Members: parts[8:16], Leader: parts[8],
				Inliers: parts[8:16], LowSlack: true, MaxDeg: 8,
			},
			{
				ID: 2, Members: parts[16:20], Leader: parts[16],
				Inliers: parts[16:20], LowSlack: true, MaxDeg: 4,
			},
		}
		srcSy := FreshSource{Root: seed, Round: 4, Bits: 8192}
		withSc = SynchColorTrialPropose(st, cliques, srcSy, sc)
		fresh = SynchColorTrialPropose(st, cliques, srcSy, nil)
		propEqual(t, withSc, fresh, "synch")

		srcPA := FreshSource{Root: seed, Round: 5, Bits: 64}
		prob := func(*CliqueInfo) (int, int) { return 1, 3 }
		withSc = PutAsidePropose(st, cliques, prob, srcPA, sc)
		fresh = PutAsidePropose(st, cliques, prob, srcPA, nil)
		propEqual(t, withSc, fresh, "putaside")
	}
}

// reusePhase is one call pattern for TestScratchReuseAcrossSetsAndSizes:
// an instance state with the participants and cliques its trials run on.
type reusePhase struct {
	label   string
	st      *State
	parts   []int32
	cliques []CliqueInfo
}

// reuseInstance builds a partially colored state on Mixed(n, seed) (every
// third node proposed once, so palettes have shrunk and some leaders are
// colored) with its almost-cliques, all marked low-slack so PutAside
// samples in every one.
func reuseInstance(t *testing.T, n int, seed uint64) (*State, []CliqueInfo) {
	t.Helper()
	st := NewState(d1lc.TrivialPalettes(graph.Mixed(n, seed)))
	cliques := BuildColorMiddle(st, Tunables{}).Cliques
	if len(cliques) < 2 {
		t.Fatalf("Mixed(%d): %d cliques, want at least 2", n, len(cliques))
	}
	for i := range cliques {
		cliques[i].LowSlack = true
	}
	third := st.LiveNodes(func(v int32) bool { return v%3 == 0 })
	st.Apply(TryRandomColorPropose(st, third, FreshSource{Root: seed, Bits: 512}, nil))
	return st, cliques
}

// TestScratchReuseAcrossSetsAndSizes drives one Scratch through all five
// proposers on a participant set, a strict subset of it, a set disjoint
// from that subset, a smaller instance and a larger one, and compares every
// proposal with the allocate-fresh one over all n nodes. A Scratch resets
// only what its previous Propose wrote, so an entry left behind by an
// earlier set or a larger instance would show up here as a difference.
func TestScratchReuseAcrossSetsAndSizes(t *testing.T) {
	st, cliques := reuseInstance(t, 1200, 5)
	live := st.LiveNodes(nil)
	var even, odd []int32
	for i, v := range live {
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	half := len(cliques) / 2
	small, smallCliques := reuseInstance(t, 300, 3)
	large, largeCliques := reuseInstance(t, 2400, 7)
	phases := []reusePhase{
		{"all", st, live, cliques},
		{"subset", st, even, cliques[:half]},
		{"disjoint", st, odd, cliques[half:]},
		{"smaller", small, small.LiveNodes(nil), smallCliques},
		{"larger", large, large.LiveNodes(nil), largeCliques},
	}
	sc := NewScratch()
	for i, ph := range phases {
		st, parts, cl := ph.st, ph.parts, ph.cliques
		maxPal := maxPalette(st.In)
		maxClique := 1
		for _, c := range cl {
			maxClique = max(maxClique, len(c.Members))
		}
		seed := uint64(i + 1)
		check := func(kind string, propose func(sc *Scratch) Proposal) {
			t.Helper()
			withSc := propose(sc)
			if len(withSc.Color) != st.In.G.N() {
				t.Fatalf("%s/%s: proposal covers %d nodes, want %d", ph.label, kind, len(withSc.Color), st.In.G.N())
			}
			fresh := propose(nil)
			propEqual(t, withSc, fresh, ph.label+"/"+kind)
			// An empty proposal would leave nothing behind to reset.
			if fresh.Win.Count() == 0 && (fresh.Mark == nil || fresh.Mark.Count() == 0) {
				t.Fatalf("%s/%s: empty proposal", ph.label, kind)
			}
		}
		check("trc", func(sc *Scratch) Proposal {
			return TryRandomColorPropose(st, parts, FreshSource{Root: seed, Round: 1, Bits: TryRandomColorBits(maxPal)}, sc)
		})
		check("multitrial", func(sc *Scratch) Proposal {
			return MultiTrialPropose(st, parts, 3, FreshSource{Root: seed, Round: 2, Bits: MultiTrialBits(3, maxPal)}, sc)
		})
		check("genslack", func(sc *Scratch) Proposal {
			return GenerateSlackPropose(st, parts, FreshSource{Root: seed, Round: 3, Bits: GenerateSlackBits(maxPal)}, sc)
		})
		check("synch", func(sc *Scratch) Proposal {
			src := FreshSource{Root: seed, Round: 4, Bits: SynchColorTrialBits(maxClique, maxPal)}
			return SynchColorTrialPropose(st, cl, src, sc)
		})
		check("putaside", func(sc *Scratch) Proposal {
			// About one sample per clique, so many cliques keep a mark.
			prob := func(c *CliqueInfo) (int, int) { return 1, len(c.Inliers) }
			return PutAsidePropose(st, cl, prob, FreshSource{Root: seed, Round: 5, Bits: PutAsideBits(maxClique)}, sc)
		})
	}
}

// TestScratchConcurrentWorkers hammers per-worker Scratch reuse the way the
// scoring engine does — one Scratch per goroutine, many seeds each — and
// cross-checks every proposal against the fresh path. Run under -race this
// also proves the trials' inner parallel loops never collide on a shared
// Scratch's buffers.
func TestScratchConcurrentWorkers(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Gnp(100, 0.08, 2))
	st := NewState(in)
	parts := st.LiveNodes(nil)
	const workers, seedsPer = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewScratch()
			for s := 0; s < seedsPer; s++ {
				seed := uint64(w*seedsPer + s)
				src := FreshSource{Root: seed, Round: 7, Bits: 2048}
				got := MultiTrialPropose(st, parts, 2, src, sc)
				want := MultiTrialPropose(st, parts, 2, src, nil)
				for v := range want.Color {
					if got.Color[v] != want.Color[v] {
						errs <- "scratch proposal diverged"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestScratchProposalInvalidation documents the aliasing contract: the next
// Propose on the same Scratch overwrites the previous Proposal's storage.
func TestScratchProposalInvalidation(t *testing.T) {
	in := d1lc.TrivialPalettes(graph.Complete(8))
	st := NewState(in)
	parts := st.LiveNodes(nil)
	sc := NewScratch()
	a := TryRandomColorPropose(st, parts, FreshSource{Root: 1, Bits: 512}, sc)
	b := TryRandomColorPropose(st, parts, FreshSource{Root: 2, Bits: 512}, sc)
	if &a.Color[0] != &b.Color[0] {
		t.Fatal("scratch proposals should share backing storage")
	}
}
