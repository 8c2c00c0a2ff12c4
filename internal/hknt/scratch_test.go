package hknt

import (
	"slices"
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
// samples in every one. LowDeg 4 keeps all of the generator's 24-cliques;
// the default LowDeg (33 at n = 1200) would drop them.
func reuseInstance(t *testing.T, n int, seed uint64) (*State, []CliqueInfo) {
	t.Helper()
	st := NewState(d1lc.TrivialPalettes(graph.Mixed(n, seed)))
	cliques := BuildColorMiddle(st, Tunables{LowDeg: 4}).Cliques
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
// Each phase binds the Scratch to its participants' PartGraph, as a seed
// walk does, so the conflict passes scan participant arcs only.
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
		sc.Bind(NewPartGraph(st.In.G, parts))
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

// TestScratchBoundGraphServesOnlyItsOwnList binds a Scratch to the
// PartGraph of a strict subset of the live nodes and hands TryRandomColor,
// GenerateSlack and MultiTrial that list and four others: a list of other
// nodes of the same length, the bound list reversed, a prefix and a suffix
// of it. Rows follow the bound list's order, so only that list may take
// the participant-only scan; every proposal must equal the
// allocate-fresh one.
func TestScratchBoundGraphServesOnlyItsOwnList(t *testing.T) {
	st, _ := reuseInstance(t, 1200, 5)
	live := st.LiveNodes(nil)
	var bound, other []int32
	for i, v := range live {
		if i%2 == 0 {
			bound = append(bound, v)
		} else {
			other = append(other, v)
		}
	}
	bound = bound[:len(other)]
	reversed := slices.Clone(bound)
	slices.Reverse(reversed)
	maxPal := maxPalette(st.In)
	sc := NewScratch()
	sc.Bind(NewPartGraph(st.In.G, bound))
	for i, tc := range []struct {
		label string
		parts []int32
	}{
		{"bound", bound},
		{"other", other},
		{"reversed", reversed},
		{"prefix", bound[:len(bound)/2]},
		{"suffix", bound[1:]},
	} {
		seed := uint64(i + 1)
		for _, trial := range boundTrials(3, maxPal) {
			src := FreshSource{Root: seed, Round: trial.round, Bits: trial.bits}
			fresh := trial.propose(st, tc.parts, src, nil)
			if fresh.Win.Count() == 0 {
				t.Fatalf("%s/%s: empty proposal", tc.label, trial.name)
			}
			propEqual(t, trial.propose(st, tc.parts, src, sc), fresh, tc.label+"/"+trial.name)
		}
	}
}

// boundTrial is one of the trials whose conflict pass a bound Scratch
// narrows to participant arcs, with its bit budget.
type boundTrial struct {
	name    string
	round   uint64
	bits    int
	propose func(st *State, parts []int32, src RandSource, sc *Scratch) Proposal
}

// boundTrials lists TryRandomColor, GenerateSlack and MultiTrial(x).
func boundTrials(x, maxPal int) []boundTrial {
	return []boundTrial{
		{"trc", 1, TryRandomColorBits(maxPal), TryRandomColorPropose},
		{"genslack", 2, GenerateSlackBits(maxPal), GenerateSlackPropose},
		{"multitrial", 3, MultiTrialBits(x, maxPal), func(st *State, parts []int32, src RandSource, sc *Scratch) Proposal {
			return MultiTrialPropose(st, parts, x, src, sc)
		}},
	}
}

// FuzzScratchBoundMatchesUnbound holds the participant-only conflict scan
// to the full one on arbitrary small instances. data[0] mod 49 is the
// node count n ≤ 48 and the remaining bytes are edges, as pairs mod n
// (the builder drops self-loops and duplicates). Node v participates when
// bit v of parts is set; it is left live when bit v of live is set, and
// otherwise colored with its first remaining color when bit v of colored
// is set and it has one, else deferred. On a Scratch bound to the
// participants' PartGraph, TryRandomColor, GenerateSlack and
// MultiTrial(1 + seed mod 4) must equal the nil-Scratch proposal.
func FuzzScratchBoundMatchesUnbound(f *testing.F) {
	k6 := []byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 1, 3, 1, 4, 1, 5, 2, 3, 2, 4, 2, 5, 3, 4, 3, 5, 4, 5}
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), uint64(1))            // n = 0
	f.Add([]byte{1, 0, 0}, uint64(1), uint64(1), uint64(0), uint64(2))     // n = 1, a self-loop
	f.Add(k6, uint64(0x3f), uint64(0x3f), uint64(0), uint64(3))            // K6, all participate
	f.Add(k6, uint64(0x0b), uint64(0x3f), uint64(0), uint64(4))            // K6, a strict subset
	f.Add(k6, uint64(0x3f), uint64(0x2d), uint64(0x12), uint64(5))         // K6, some colored or deferred
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4}, // C8 plus a chord
		uint64(0x55), uint64(0xf7), uint64(0x08), uint64(6))
	f.Fuzz(func(t *testing.T, data []byte, parts, live, colored, seed uint64) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%49, data[1:]
		}
		b := graph.NewBuilder(n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		g := b.Build()
		st := NewState(d1lc.TrivialPalettes(g))
		var ps []int32
		for v := int32(0); v < int32(n); v++ {
			switch {
			case live>>v&1 == 1:
			case colored>>v&1 == 1 && len(st.Rem[v]) > 0:
				st.SetColor(v, st.Rem[v][0])
			default:
				st.Defer(v)
			}
			if parts>>v&1 == 1 {
				ps = append(ps, v)
			}
		}
		sc := NewScratch()
		sc.Bind(NewPartGraph(g, ps))
		for _, trial := range boundTrials(1+int(seed%4), g.MaxDegree()+1) {
			src := FreshSource{Root: seed, Round: trial.round, Bits: trial.bits}
			propEqual(t, trial.propose(st, ps, src, sc), trial.propose(st, ps, src, nil), trial.name)
		}
	})
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
