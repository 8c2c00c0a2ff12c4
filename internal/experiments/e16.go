package experiments

import (
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/mpc"
	"parcolor/internal/prg"
	"parcolor/internal/stats"
)

func init() { register("E16", e16SeedSelectionProtocols) }

// e16SeedSelectionProtocols compares the two distributed seed-selection
// protocols on one derandomized TryRandomColor round: the scalar-batched
// aggregation (one compute round plus a full tree ascent per seed batch)
// against the row-sharded pipelined converge-cast of Section 5.1 (one
// compute round filling each machine's row of per-seed scores, then
// batches ascending the tree back-to-back). Both
// must choose the identical seed and color the identical set; the row
// protocol must never use more simulated rounds, and cuts them whenever
// the seed space spans multiple batches.
func e16SeedSelectionProtocols(cfg Config) *stats.Table {
	t := stats.New("E16", "MPC seed selection: scalar batching vs row converge-cast",
		"agree must be yes; rowRounds ≤ scalarRounds certifies the pipelined converge-cast",
		"n", "s", "seeds", "scalarRounds", "rowRounds", "scalarMsgs", "rowMsgs", "agree", "violations")
	spaces := []int{128, 512}
	numSeeds := 1 << cfg.SeedBits
	for _, n := range cfg.sizes() {
		for _, s := range spaces {
			g := graph.Gnp(n, 4.0/float64(n), cfg.Seed)
			in := d1lc.TrivialPalettes(g)
			run := func(opt mpc.RoundOptions) (seed uint64, colored, rounds int, msgs int64, viol int, err error) {
				c, err := mpc.ClusterForGraph(g, s, false)
				if err != nil {
					return 0, 0, 0, 0, 0, err
				}
				col := d1lc.NewColoring(n)
				remaining := make([][]int32, n)
				for v := range remaining {
					remaining[v] = append([]int32(nil), in.Palettes[v]...)
				}
				chunkOf := make([]int32, n)
				for v := range chunkOf {
					chunkOf[v] = int32(v)
				}
				gen := prg.NewKWise(4, cfg.SeedBits, n*64)
				seed, colored, rounds, err = mpc.DerandomizedTRCRound(
					c, in, col, remaining, chunkOf, n, gen, numSeeds, opt)
				return seed, colored, rounds, c.Metrics.TotalMessages, c.Metrics.Violations, err
			}
			sSeed, sColored, sRounds, sMsgs, sViol, err := run(mpc.RoundOptions{NaiveScoring: true})
			if err != nil {
				t.Add(n, s, numSeeds, -1, -1, int64(-1), int64(-1), "error", -1)
				continue
			}
			rSeed, rColored, rRounds, rMsgs, rViol, err := run(mpc.RoundOptions{})
			if err != nil {
				t.Add(n, s, numSeeds, sRounds, -1, sMsgs, int64(-1), "error", -1)
				continue
			}
			agree := sSeed == rSeed && sColored == rColored && rRounds <= sRounds
			t.Add(n, s, numSeeds, sRounds, rRounds, sMsgs, rMsgs, yesNo(agree), sViol+rViol)
		}
	}
	return t
}
