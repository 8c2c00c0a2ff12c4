package hknt

import (
	"slices"
	"testing"
	"testing/quick"

	"parcolor/internal/bitset"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/local"
	"parcolor/internal/par"
)

func TestNewStateInitialInvariants(t *testing.T) {
	g := graph.Cycle(6)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	for v := int32(0); v < 6; v++ {
		if st.LiveDegree(v) != 2 || st.Slack(v) != 1 {
			t.Fatalf("node %d: deg=%d slack=%d", v, st.LiveDegree(v), st.Slack(v))
		}
		if !st.Live(v) {
			t.Fatal("all nodes should start live")
		}
	}
}

func TestSetColorPrunesNeighbors(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	st.SetColor(1, 0)
	if st.LiveDegree(0) != 0 || st.LiveDegree(2) != 0 {
		t.Fatal("live degrees not decremented")
	}
	if st.HasRem(0, 0) || st.HasRem(2, 0) {
		t.Fatal("color 0 not pruned from neighbors")
	}
	// Slack preserved: lost one palette color and one degree.
	if st.Slack(0) != 1 || st.Slack(2) != 1 {
		t.Fatalf("slack after prune: %d,%d", st.Slack(0), st.Slack(2))
	}
}

func TestSetColorPanicsOnConflict(t *testing.T) {
	g := graph.Path(2)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	st.SetColor(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic coloring neighbor with same color")
		}
	}()
	// Color 1 was pruned from node 1's Rem, so this panics on HasRem.
	st.SetColor(1, 1)
}

func TestDeferIncreasesNeighborSlack(t *testing.T) {
	g := graph.Star(4)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	before := st.Slack(0)
	st.Defer(1)
	if st.Slack(0) != before+1 {
		t.Fatalf("slack %d want %d", st.Slack(0), before+1)
	}
	if st.Live(1) {
		t.Fatal("deferred node still live")
	}
	// Palette of the center must be untouched.
	if len(st.Rem[0]) != 4 {
		t.Fatal("defer must not prune palettes")
	}
}

func TestPutAsideThenColorNoDoubleDecrement(t *testing.T) {
	g := graph.Path(3)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	st.MarkPutAside(1)
	if st.LiveDegree(0) != 0 {
		t.Fatal("putaside should drop neighbor degree")
	}
	st.SetColor(0, 0)
	// Coloring node 0 must NOT decrement node 1's neighbors again via 1.
	st.SetColor(1, 1) // putaside node colored by finisher path
	if st.LiveDegree(2) != 0 {
		t.Fatalf("liveDeg(2)=%d want 0", st.LiveDegree(2))
	}
	// Node 2 lost neighbor 1 once (putaside), and again at SetColor(1)
	// would be a double decrement — guard ensures exactly one.
	if err := d1lc.VerifyPartial(in, st.Col, false); err != nil {
		t.Fatal(err)
	}
}

func TestSlackMonotoneUnderRandomColoring(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Gnp(30, 0.2, seed)
		in := d1lc.TrivialPalettes(g)
		st := NewState(in)
		slackBefore := make([]int, 30)
		for v := int32(0); v < 30; v++ {
			slackBefore[v] = st.Slack(v)
		}
		parts := st.LiveNodes(nil)
		prop := TryRandomColorPropose(st, parts, FreshSource{Root: seed, Bits: 512}, nil)
		st.Apply(prop)
		for v := int32(0); v < 30; v++ {
			if !st.Live(v) {
				continue
			}
			if st.Slack(v) < slackBefore[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyProposalWithMarks(t *testing.T) {
	g := graph.Cycle(5)
	in := d1lc.TrivialPalettes(g)
	st := NewState(in)
	prop := NewProposal(5)
	prop.SetWin(0, 0)
	prop.Mark = bitset.New(5)
	prop.Mark.Set(2)
	if n := st.Apply(prop); n != 1 {
		t.Fatalf("colored %d", n)
	}
	if !st.PutAside[2] || st.Live(2) {
		t.Fatal("mark not applied")
	}
}

func TestDeferredNodesList(t *testing.T) {
	g := graph.Path(4)
	st := NewState(d1lc.TrivialPalettes(g))
	st.Defer(1)
	st.Defer(3)
	got := st.DeferredNodes()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("deferred=%v", got)
	}
}

func TestLiveNodesFilter(t *testing.T) {
	g := graph.Path(5)
	st := NewState(d1lc.TrivialPalettes(g))
	st.SetColor(0, 0)
	st.Defer(2)
	live := st.LiveNodes(nil)
	if len(live) != 3 {
		t.Fatalf("live=%v", live)
	}
	even := st.LiveNodes(func(v int32) bool { return v%2 == 0 })
	if len(even) != 1 || even[0] != 4 {
		t.Fatalf("filtered=%v", even)
	}
}

// TestNewStateReuseAcrossSizes releases a mutated State into the package
// pool and draws a smaller and then a larger instance's State from it:
// every field must hold what a fresh State holds, so nothing of an earlier
// run (colors, pruned palettes, deferrals, put-asides, live bits, rounds,
// the worker budget) reaches the next.
func TestNewStateReuseAcrossSizes(t *testing.T) {
	mutate := func(st *State) {
		for v := int32(0); v < int32(st.In.G.N()); v++ {
			switch v % 3 {
			case 0:
				st.SetColor(v, st.Rem[v][0])
			case 1:
				st.Defer(v)
			case 2:
				st.MarkPutAside(v)
			}
		}
		st.Meter.Tick(5)
		st.Par = par.NewRunner(2)
	}
	checkFresh := func(st *State, in *d1lc.Instance) {
		t.Helper()
		n := in.G.N()
		if st.In != in || st.Par != nil || st.Meter != (local.Meter{}) {
			t.Fatalf("n=%d: In/Par/Meter not reset (Par %v, Meter %+v)", n, st.Par, st.Meter)
		}
		if len(st.Rem) != n || len(st.liveDeg) != n || len(st.Deferred) != n || len(st.PutAside) != n || len(st.Col.Colors) != n {
			t.Fatalf("n=%d: field lengths %d/%d/%d/%d/%d", n, len(st.Rem), len(st.liveDeg), len(st.Deferred), len(st.PutAside), len(st.Col.Colors))
		}
		for v := int32(0); v < int32(n); v++ {
			if !slices.Equal(st.Rem[v], in.Palettes[v]) {
				t.Fatalf("n=%d: Rem[%d] = %v, palette %v", n, v, st.Rem[v], in.Palettes[v])
			}
			if st.LiveDegree(v) != in.G.Degree(v) {
				t.Fatalf("n=%d: liveDeg[%d] = %d, degree %d", n, v, st.LiveDegree(v), in.G.Degree(v))
			}
			if st.Deferred[v] || st.PutAside[v] || st.Col.Colors[v] != d1lc.Uncolored {
				t.Fatalf("n=%d: node %d deferred=%v putAside=%v color=%d", n, v, st.Deferred[v], st.PutAside[v], st.Col.Colors[v])
			}
		}
		want := bitset.New(n)
		want.FillOnes(n)
		if !slices.Equal(st.live, want) {
			t.Fatalf("n=%d: live mask is not exactly the n set bits", n)
		}
	}
	large := d1lc.TrivialPalettes(graph.Gnp(500, 0.02, 1))
	st := NewState(large)
	checkFresh(st, large)
	mutate(st)
	st.Release()
	for _, n := range []int{120, 900} {
		in := d1lc.TrivialPalettes(graph.Gnp(n, 8/float64(n), uint64(n)))
		st := NewState(in)
		checkFresh(st, in)
		mutate(st)
		st.Release()
	}
}
