package mpc

import (
	"fmt"

	"parcolor/internal/condexp"
)

// This file implements the distributed method of conditional expectations
// exactly as Lemma 10 runs it on the cluster: every machine scores each
// candidate PRG seed against the nodes it hosts, the per-seed scores are
// combined up an aggregation tree, and the argmin seed is broadcast back.
// The in-process derandomizer (package deframe) computes the same argmin
// with shared-memory parallelism; the test suite checks the two agree,
// which is the simulation argument of Section 5.1 made executable.
//
// Two protocols coexist, mirroring the condexp package's two scoring
// paths:
//
//   - DistributedSelectSeed (scalar batching) processes the seed space in
//     batches, paying one compute round plus a full tree ascent per batch:
//     B·L rounds for B batches over an L-level tree. It is the oracle the
//     row protocol is differentially tested against.
//   - DistributedSelectSeedRows (row-sharded converge-cast) is the
//     paper's shape: each machine scores its nodes for every seed, filling
//     its whole row of per-seed scores in ONE compute round, then the row
//     vectors ascend the tree as pipelined batches — level l forwards
//     batch b in the round after its children sent it — so B batches
//     clear L levels in L+B−1 rounds, never more than the scalar
//     protocol's B·L. Every machine, the root included, folds its
//     children's segments (contiguous seed ranges of their subtree sums)
//     into its own row element by element, so once the cast drains the
//     root's row holds every seed's total and the selection is
//     condexp.SelectTotals over it, as in the shared-memory path.

// SeedScorer evaluates, for one machine, the summed objective of the
// nodes that machine is responsible for under the given seed.
type SeedScorer func(machineID int, seed uint64) int64

// DistributedSelectSeed scores numSeeds seeds across the cluster and
// returns the minimum-total-score seed (smallest seed on ties) together
// with the number of MPC rounds consumed.
//
// Protocol: seeds are processed in batches of at most s/2 per round so
// that per-machine message volume stays within local space; each round,
// every machine sends its batch scores up a k-ary aggregation tree (one
// (seed, partial-sum) record per seed), and the root finalizes totals.
// Rounds: O(numSeeds/s · log_k M) — O(1) for seed spaces of size ≤ s,
// which is the paper's d = Θ(log Δ) regime (2^d ≤ poly(Δ) ≤ s).
func DistributedSelectSeed(c *Cluster, numSeeds int, score SeedScorer) (bestSeed uint64, bestScore int64, rounds int, err error) {
	if numSeeds <= 0 {
		return 0, 0, 0, fmt.Errorf("mpc: empty seed space")
	}
	nm := len(c.Machines)
	batch, k := c.batchGeometry()
	startRounds := c.Metrics.Rounds
	totals := make([]int64, numSeeds)

	for lo := 0; lo < numSeeds; lo += batch {
		hi := lo + batch
		if hi > numSeeds {
			hi = numSeeds
		}
		// Local scoring (one compute round, no messages).
		partial := make([][]int64, nm) // per machine, scores for [lo,hi)
		err := c.Round(func(m *Machine, out *Mailer) {
			p := make([]int64, hi-lo)
			for s := lo; s < hi; s++ {
				p[s-lo] = score(m.ID, uint64(s))
			}
			partial[m.ID] = p
		})
		if err != nil {
			return 0, 0, 0, err
		}
		// Aggregate up the k-ary heap tree: leaves to root, one level per
		// round, each machine sending its (partial) batch vector once.
		levels := levelsOf(nm, k)
		acc := partial
		for l := levels - 1; l >= 1; l-- {
			loP, hiP := levelRange(l, k)
			err := c.Round(func(m *Machine, out *Mailer) {
				p := m.ID
				if p < loP || p > hiP || p >= nm {
					return
				}
				rec := make([]int64, 0, hi-lo+1)
				rec = append(rec, int64(hi-lo))
				rec = append(rec, acc[p]...)
				out.Send((p-1)/k, rec)
			})
			if err != nil {
				return 0, 0, 0, err
			}
			// Fold child records, deduplicating per sender and verifying
			// every expected child reported — a lossy transport turns a
			// missing record into ErrSegmentLost here instead of a
			// silently short sum.
			for p := 0; p < nm; p++ {
				var seen map[segKey]bool
				for _, d := range c.Machines[p].Inbox {
					if seen == nil {
						seen = map[segKey]bool{}
					}
					if seen[segKey{d.From, 0}] {
						continue // duplicate delivery
					}
					seen[segKey{d.From, 0}] = true
					cnt := int(d.Rec[0])
					for i := 0; i < cnt; i++ {
						acc[p][i] += d.Rec[1+i]
					}
				}
				c.Machines[p].Inbox = nil
				if err := expectSegments(p, seen, heapChildrenIn(p, k, loP, hiP, nm), 1); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		for s := lo; s < hi; s++ {
			totals[s] = acc[0][s-lo]
		}
	}
	bestSeed, bestScore = 0, totals[0]
	for s := 1; s < numSeeds; s++ {
		if totals[s] < bestScore {
			bestSeed, bestScore = uint64(s), totals[s]
		}
	}
	// Broadcast the winner (part of the protocol round budget).
	if err := c.Broadcast(0, []int64{int64(bestSeed), bestScore}); err != nil {
		return 0, 0, 0, err
	}
	return bestSeed, bestScore, c.Metrics.Rounds - startRounds, nil
}

// batchGeometry returns the seed-batch width and aggregation-tree fanout
// both selection protocols share: a parent receiving k child records of
// batch+1 words stays within local space, k·(batch+1) ≤ s with k ≥ 2.
// Keeping this in one place is what makes the protocols' round counts
// comparable (rows ≤ scalar is tested against exactly this geometry).
func (c *Cluster) batchGeometry() (batch, k int) {
	batch = c.cfg.LocalSpace/4 - 1
	if batch < 1 {
		batch = 1
	}
	k = c.cfg.LocalSpace / (batch + 1)
	if k < 2 {
		k = 2
	}
	return batch, k
}

// RowScorer fills one machine's full contribution row: row[s] must be set
// to the machine's summed local objective for seed s, for every s in
// [0, len(row)). It is called once per machine per selection, so
// implementations can amortize per-seed setup (PRG expansions, gathered
// palettes) across the whole row.
type RowScorer func(machineID int, row []int64)

// RowsFromScalar adapts a per-seed SeedScorer to the row protocol's
// whole-row fill. It forgoes RowScorer's per-row amortization — use it
// when the objective has no per-seed setup worth hoisting, and in
// differential tests against the scalar protocol.
func RowsFromScalar(score SeedScorer) RowScorer {
	return func(mid int, row []int64) {
		for s := range row {
			row[s] = score(mid, uint64(s))
		}
	}
}

// DistributedSelectSeedRows selects the minimum-total seed by the
// row-sharded converge-cast (see the file comment for the protocol) and
// returns the selection as a condexp.Result — seed, score, and the
// conditional-expectations certificate (SumScores/MeanUpper) that the
// scalar protocol never materialized — together with the MPC rounds
// consumed. The chosen seed and score are bit-identical to
// DistributedSelectSeed over the same objective.
func DistributedSelectSeedRows(c *Cluster, numSeeds int, fill RowScorer) (res condexp.Result, rounds int, err error) {
	if numSeeds <= 0 {
		return condexp.Result{}, 0, fmt.Errorf("mpc: empty seed space")
	}
	nm := len(c.Machines)
	batch, k := c.batchGeometry()
	startRounds := c.Metrics.Rounds

	// Compute round: every machine fills its local row of per-seed
	// scores. In the paper's regime the whole row fits in local space
	// (2^d ≤ poly(Δ) ≤ s); the simulation keeps rows in host-side
	// accumulators — like the scalar protocol's batch partials, though a
	// full row is numSeeds words where those are ≤ batch+1 — so for
	// numSeeds > s the resident table is NOT charged against
	// Metrics.MaxStored. The engine accounts every message either way;
	// the round/traffic comparison with the scalar oracle is what the
	// tests certify.
	acc := make([][]int64, nm)
	err = c.Round(func(m *Machine, out *Mailer) {
		row := acc[m.ID]
		if row == nil {
			row = make([]int64, numSeeds)
			acc[m.ID] = row
		}
		fill(m.ID, row)
	})
	if err != nil {
		return condexp.Result{}, 0, err
	}

	nBatches := (numSeeds + batch - 1) / batch
	levels := levelsOf(nm, k)
	// recvd[p] records the (child, batch) segments machine p has folded,
	// deduplicating duplicated deliveries at fold time and backing the
	// post-cast completeness check that classifies lost segments.
	recvd := make([]map[segKey]bool, nm)
	// Pipelined converge-cast: at tick t, machines on level l forward
	// batch b = t − (levels−1−l) — one round after their children sent b,
	// so the vector sums are complete when forwarded. Leaves start at
	// t = 0 with batch 0; the last batch reaches level 1 at the last tick.
	for t := 0; levels >= 2 && t <= (levels-2)+(nBatches-1); t++ {
		err := c.Round(func(m *Machine, out *Mailer) {
			l := levelOfPos(m.ID, k)
			if l < 1 {
				return
			}
			b := t - (levels - 1 - l)
			if b < 0 || b >= nBatches {
				return
			}
			lo := b * batch
			hi := lo + batch
			if hi > numSeeds {
				hi = numSeeds
			}
			rec := make([]int64, 0, hi-lo+1)
			rec = append(rec, int64(b))
			rec = append(rec, acc[m.ID][lo:hi]...)
			out.Send((m.ID-1)/k, rec)
		})
		if err != nil {
			return condexp.Result{}, 0, err
		}
		for p := 0; p < nm; p++ {
			for _, d := range c.Machines[p].Inbox {
				b := int(d.Rec[0])
				if recvd[p] == nil {
					recvd[p] = map[segKey]bool{}
				}
				if recvd[p][segKey{d.From, b}] {
					continue // duplicate delivery: fold the first copy only
				}
				recvd[p][segKey{d.From, b}] = true
				// Fold the child's segment into the subtree sum.
				row := acc[p][b*batch:]
				for i, x := range d.Rec[1:] {
					row[i] += x
				}
			}
			c.Machines[p].Inbox = nil
		}
	}
	// Completeness: every parent must have folded every batch of every
	// child's subtree row. A lossy transport that dropped a segment fails
	// the selection here — classified, retryable — rather than letting a
	// short sum pick a different seed than the fault-free oracle.
	for p := 0; p < nm; p++ {
		if err := expectSegments(p, recvd[p], heapChildren(p, k, nm), nBatches); err != nil {
			return condexp.Result{}, 0, err
		}
	}

	// Selection: with the cast drained, the root's row holds every seed's
	// total, and selecting over it also yields the certificate. Exact
	// integer addition keeps the totals bit-identical to the scalar
	// oracle's fold order.
	res = condexp.SelectTotals(acc[0])
	if err := c.Broadcast(0, []int64{int64(res.Seed), res.Score}); err != nil {
		return condexp.Result{}, 0, err
	}
	return res, c.Metrics.Rounds - startRounds, nil
}

// heapChildren returns p's child positions in a k-ary heap over nm
// positions: p·k+1 … p·k+k, clipped to the heap.
func heapChildren(p, k, nm int) []int {
	var out []int
	for child := p*k + 1; child <= p*k+k && child < nm; child++ {
		out = append(out, child)
	}
	return out
}

// heapChildrenIn is heapChildren restricted to children inside the level
// range [lo, hi] — the senders of one scalar-aggregation round.
func heapChildrenIn(p, k, lo, hi, nm int) []int {
	var out []int
	for _, child := range heapChildren(p, k, nm) {
		if child >= lo && child <= hi {
			out = append(out, child)
		}
	}
	return out
}

// levelOfPos returns the level of position p in a k-ary heap (root = 0).
func levelOfPos(p, k int) int {
	l, lo, size := 0, 0, 1
	for p > lo+size-1 {
		lo += size
		size *= k
		l++
	}
	return l
}
