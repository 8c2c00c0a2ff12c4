package deframe

// Cross-tier validation of Section 5.1's simulation argument: Lemma 10's
// seed selection computed with shared-memory parallelism (DerandomizeStep)
// must match the faithful distributed protocols on the MPC cluster — both
// the scalar-batched aggregation (mpc.DistributedSelectSeed) and the
// row-sharded converge-cast (mpc.DistributedSelectSeedRows) — when each
// machine scores the nodes it hosts.

import (
	"testing"

	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/mpc"
	"parcolor/internal/prg"
)

func TestSeedSelectionMatchesClusterProtocol(t *testing.T) {
	g := graph.Gnp(40, 0.15, 3)
	in := d1lc.TrivialPalettes(g)
	st := hknt.NewState(in)
	step := hknt.Step{
		Name:         "trc",
		Tau:          2,
		Bits:         hknt.TryRandomColorBits(16),
		Participants: func(st *hknt.State) []int32 { return st.LiveNodes(nil) },
		Propose:      hknt.TryRandomColorPropose,
		SSP: func(st *hknt.State, parts []int32, prop hknt.Proposal, v int32) bool {
			return prop.Color[v] != d1lc.Uncolored
		},
	}
	o := Options{SeedBits: 6}.withDefaults(g.MaxDegree())
	chunkOf, numChunks, _ := chunkAssignment(nil, g, chunkRadius, o.MaxChunkGraphEdges)
	parts := step.Participants(st)
	gen := buildPRG(o, numChunks, step.Bits)

	// Precompute per-(seed, node) failure indicators — the values each
	// home machine would compute locally from its τ-hop ball.
	numSeeds := 1 << o.SeedBits
	fail := make([][]int64, numSeeds)
	for seed := 0; seed < numSeeds; seed++ {
		src, err := prg.NewChunkedSource(gen, uint64(seed), chunkOf, numChunks, step.Bits)
		if err != nil {
			t.Fatal(err)
		}
		prop := step.Propose(st, parts, src, nil)
		row := make([]int64, g.N())
		for _, v := range parts {
			if !step.SSP(st, parts, prop, v) {
				row[v] = 1
			}
		}
		fail[seed] = row
	}

	// Shared-memory path.
	rep, err := DerandomizeStep(hknt.NewState(in), &step, chunkOf, numChunks, o)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed path: machine v hosts node v.
	c, err := mpc.NewCluster(mpc.Config{Machines: g.N(), LocalSpace: 4096, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	seed, score, rounds, err := mpc.DistributedSelectSeed(c, numSeeds, func(mid int, s uint64) int64 {
		return fail[s][mid]
	})
	if err != nil {
		t.Fatal(err)
	}
	if seed != rep.SeedChosen || score != rep.Score {
		t.Fatalf("cluster picked (%d,%d), shared-memory picked (%d,%d)",
			seed, score, rep.SeedChosen, rep.Score)
	}
	if rounds <= 0 || c.Metrics.Violations != 0 {
		t.Fatalf("protocol accounting: rounds=%d violations=%d", rounds, c.Metrics.Violations)
	}

	// Row-sharded converge-cast path: each home fills its whole row of
	// per-seed scores. Must agree with both of the above and
	// never exceed the scalar protocol's simulated rounds.
	cr, err := mpc.NewCluster(mpc.Config{Machines: g.N(), LocalSpace: 4096, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	res, rowRounds, err := mpc.DistributedSelectSeedRows(cr, numSeeds,
		mpc.RowsFromScalar(func(mid int, s uint64) int64 { return fail[s][mid] }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != rep.SeedChosen || res.Score != rep.Score {
		t.Fatalf("row converge-cast picked (%d,%d), shared-memory picked (%d,%d)",
			res.Seed, res.Score, rep.SeedChosen, rep.Score)
	}
	if res.MeanUpper() != rep.MeanUpper {
		t.Fatalf("row converge-cast certificate %d, shared-memory %d", res.MeanUpper(), rep.MeanUpper)
	}
	if rowRounds > rounds || cr.Metrics.Violations != 0 {
		t.Fatalf("row protocol accounting: rounds=%d (scalar %d) violations=%d",
			rowRounds, rounds, cr.Metrics.Violations)
	}
}
