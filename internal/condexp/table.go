package condexp

import (
	"fmt"
	"sync"

	"parcolor/internal/kernel"
	"parcolor/internal/par"
)

// This file implements the contribution-table scoring path: the
// paper-faithful realization of Lemma 10's distributed seed selection.
// Each machine (a contiguous chunk of the participants) evaluates its local
// contribution to every seed's objective exactly once, written straight
// into the seed's contiguous row of the seed-major table; a converge-cast
// reduces each row to the seed's total with one unit-stride scan; and both
// selection strategies — full enumeration and the bit-by-bit method of
// conditional expectations — become pure aggregation over the totals, with
// zero further scorer invocations. The naive Scorer-driven entry points in
// condexp.go remain the oracle the table path is differentially tested
// against, and BuildChunkMajorOracle retains the retired chunk-major
// layout as the layout-level reference.

// scoreChunkLine is the number of participants per score chunk: one CPU
// cache line of int32 participant ids (64 bytes). Participant-proportional
// chunking keeps each row's fill loop cache-resident while giving the
// converge-cast enough rows to parallelize on large instances, where a
// fixed row count left most workers idle.
const scoreChunkLine = 16

// maxScoreChunks caps the table rows so Contrib (NumChunks × NumSeeds
// words) stays bounded on very large participant sets.
const maxScoreChunks = 1024

// ScoreChunks returns the number of machine-local score chunks (table
// rows) for a participant set of the given size:
// ⌈nParts/scoreChunkLine⌉ clamped to [1, maxScoreChunks]. It is a pure
// function of the participant count, so the table shape — though never the
// selected Result, which is invariant under any chunk partition — is
// independent of GOMAXPROCS. Every table-engine call site (deframe, mis,
// lowdeg) sizes its tables through this one policy.
func ScoreChunks(nParts int) int {
	k := (nParts + scoreChunkLine - 1) / scoreChunkLine
	if k < 1 {
		k = 1
	}
	if k > maxScoreChunks {
		k = maxScoreChunks
	}
	return k
}

// ChunkBounds returns the participant-index partition the table engines
// score against: bounds[c] = c·nParts/k, so chunk c covers indices
// [bounds[c], bounds[c+1]) — the same ⌊c·n/k⌋ split the naive oracles'
// ScoreChunk calls use. Centralizing it keeps every engine's chunk
// boundaries in lockstep with the ScoreChunks policy.
func ChunkBounds(nParts, k int) []int32 {
	bounds := make([]int32, k+1)
	for c := 0; c <= k; c++ {
		bounds[c] = int32(c * nParts / k)
	}
	return bounds
}

// BestSeen tracks the (score, seed)-lexicographic minimum offered during a
// table build: exactly the seed flat selection returns, because the
// comparison mirrors SelectSeed/par.ReduceMin's smallest-seed tie-break.
// The table engines use it to materialize the flat winner's proposal while
// walking the seed space, so committing it needs no recomputation. Safe
// for concurrent Offer calls; the ordering makes the winner deterministic
// under any evaluation order.
type BestSeen struct {
	mu    sync.Mutex
	have  bool
	seed  uint64
	score int64
}

// Offer proposes (seed, score). If it takes the minimum slot, keep runs
// while the lock pins the slot — the caller materializes the winner there
// (cloning out of per-worker scratch). keep runs O(log numSeeds) expected
// times over a random-order walk.
func (b *BestSeen) Offer(seed uint64, score int64, keep func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.have && (b.score < score || (b.score == score && b.seed < seed)) {
		return
	}
	b.have, b.seed, b.score = true, seed, score
	keep()
}

// Matches reports whether seed holds the minimum slot — true for the flat
// winner by construction; bitwise selection may pick another seed.
func (b *BestSeen) Matches(seed uint64) bool { return b.have && b.seed == seed }

// ChunkFiller computes one seed's per-chunk contributions: fill(seed, row)
// must set row[c] for every chunk c. The row is a slice of the table
// itself — the seed's contiguous in-place chunk row, written with no
// scatter and no per-worker copy — so implementations must write every
// element (its previous contents are unspecified pooled storage), must
// not read cells they have not written this call, and must not retain the
// slice after returning. Calls with distinct seeds may run concurrently;
// within one worker, calls arrive for increasing seeds of a contiguous
// range, so implementations may reuse per-worker scratch keyed off
// goroutine identity (e.g. a sync.Pool). Implementations must be
// deterministic: the same seed always yields the same row.
type ChunkFiller func(seed uint64, row []int64)

// ContribTable is the materialized [NumSeeds × NumChunks] score table plus
// the converge-cast totals, stored seed-major: Contrib[s*NumChunks+c] is
// chunk c's contribution to seed s's objective, so one seed's row is a
// contiguous unit-stride block — fills write it in place and the
// converge-cast reduces it in one linear scan (both auto-vectorizable,
// where the retired chunk-major layout forced stride-NumSeeds scatter
// writes). Totals[s] is the full objective of seed s. The table remembers
// the Runner that built it, so selection aggregates on the same worker
// budget as the fill.
type ContribTable struct {
	NumSeeds  int
	NumChunks int
	Contrib   []int64
	Totals    []int64

	run *par.Runner
}

// tables recycles ContribTable storage across builds: the [seeds ×
// chunks] contribution grid plus the totals vector are the largest
// per-selection allocations, and their shape recurs step after step and
// solve after solve.
var tables = sync.Pool{New: func() any { return new(ContribTable) }}

// getTable returns a table with at least the requested shape, reusing
// pooled storage when available.
func getTable(numSeeds, numChunks int) *ContribTable {
	t := tables.Get().(*ContribTable)
	t.NumSeeds, t.NumChunks = numSeeds, numChunks
	cells := numSeeds * numChunks
	if cap(t.Contrib) < cells {
		t.Contrib = make([]int64, cells)
	} else {
		// No zeroing: BuildTable hands every seed its in-place row and the
		// ChunkFiller contract requires each fill to write its full row,
		// so the worker partition covers every cell — and a cancelled
		// build's table is released without being read.
		t.Contrib = t.Contrib[:cells]
	}
	return t
}

// Release returns the table's storage to the package pool for a later
// BuildTable. The caller must not use t afterwards.
func (t *ContribTable) Release() {
	t.run = nil
	tables.Put(t)
}

// BuildTable evaluates every (seed, chunk) contribution in a single
// parallel pass over the seed space on r's workers — each worker walks a
// contiguous seed range, handing fill each seed's in-place table row
// (zero-copy: no per-worker staging row, no stride-NumSeeds scatter) —
// then aggregates per-seed totals by a converge-cast that reduces each
// contiguous row in place. The table's storage comes from a package pool;
// Release returns it. Workers poll the runner's cancellation between
// seeds; on cancellation BuildTable stops filling promptly and returns the
// context's error with no table.
func BuildTable(r *par.Runner, numSeeds, numChunks int, fill ChunkFiller) (*ContribTable, error) {
	if numSeeds <= 0 {
		panic("condexp: empty seed space")
	}
	if numChunks <= 0 {
		panic("condexp: table needs at least one chunk")
	}
	t := getTable(numSeeds, numChunks)
	t.run = r
	contrib := t.Contrib
	if r.Workers(numSeeds) == 1 {
		// Inline loop: no goroutine fan-out and no escaping closure, so a
		// warm single-worker build performs zero allocations.
		for s := 0; s < numSeeds && r.Err() == nil; s++ {
			fill(uint64(s), contrib[s*numChunks:(s+1)*numChunks:(s+1)*numChunks])
		}
	} else {
		r.ForChunked(numSeeds, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				if r.Err() != nil {
					return
				}
				// The seed's in-place row, capacity-capped so a misbehaving
				// filler cannot scribble into the next seed's cells.
				fill(uint64(s), contrib[s*numChunks:(s+1)*numChunks:(s+1)*numChunks])
			}
		})
	}
	if err := r.Err(); err != nil {
		t.Release()
		return nil, err
	}
	t.convergeCast()
	return t, nil
}

// Select is the table path of one Lemma 10 seed selection: build the
// table over the 2^seedBits seed space, select by the bit-by-bit method
// when bitwise is set and by full enumeration otherwise, and release the
// table. A cancelled runner surfaces the context's error.
func Select(r *par.Runner, seedBits int, bitwise bool, numChunks int, fill ChunkFiller) (Result, error) {
	t, err := BuildTable(r, 1<<seedBits, numChunks, fill)
	if err != nil {
		return Result{}, err
	}
	var res Result
	if bitwise {
		res = t.SelectSeedBitwise(seedBits)
	} else {
		res = t.SelectSeed()
	}
	t.Release()
	return res, nil
}

// SelectNaive is Select's scorer-driven oracle over the same seed space
// and strategy. Once r is cancelled the remaining evaluations are skipped
// (their scores are discarded with the selection) and the context's error
// is returned.
func SelectNaive(r *par.Runner, seedBits int, bitwise bool, score Scorer) (Result, error) {
	scorer := func(seed uint64) int64 {
		if r.Err() != nil {
			return 0
		}
		return score(seed)
	}
	var res Result
	if bitwise {
		res = SelectSeedBitwise(r, seedBits, scorer)
	} else {
		res = SelectSeed(r, 1<<seedBits, scorer)
	}
	if err := r.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// BuildChunkMajorOracle is the retained reference implementation of the
// layout the seed-major table replaced: a per-seed staging row scattered
// into a chunk-major grid (contrib[c*numSeeds+s]) with stride-numSeeds
// writes, and totals folded chunk-by-chunk in the converge-cast's tree
// order. It exists solely as the differential-test oracle — the
// seed-major BuildTable must stay bit-identical to it, cell for transposed
// cell and total for total, under every engine, selection strategy and
// worker count — and is deliberately sequential and allocation-heavy, the
// shape whose cost the seed-major layout removed.
func BuildChunkMajorOracle(numSeeds, numChunks int, fill ChunkFiller) (contrib, totals []int64) {
	contrib = make([]int64, numSeeds*numChunks)
	row := make([]int64, numChunks)
	for s := 0; s < numSeeds; s++ {
		fill(uint64(s), row)
		for c, v := range row {
			contrib[c*numSeeds+s] = v
		}
	}
	totals = make([]int64, numSeeds)
	for c := 0; c < numChunks; c++ {
		for s := 0; s < numSeeds; s++ {
			totals[s] += contrib[c*numSeeds+s]
		}
	}
	return contrib, totals
}

// VerifyAgainstChunkMajorOracle checks the seed-major table bit-identical
// to a chunk-major oracle (the (contrib, totals) pair of
// BuildChunkMajorOracle over the same fill): every cell equal to its
// transposed oracle cell, totals equal in seed order, and both selection
// strategies — flat and bitwise at seedBits, which must satisfy
// 1<<seedBits == NumSeeds — agreeing with selection over the oracle
// totals. It returns a descriptive error at the first divergence: the
// shared assertion of the differential suites in condexp and all three
// engines.
func (t *ContribTable) VerifyAgainstChunkMajorOracle(oc, ot []int64, seedBits int) error {
	nc, ns := t.NumChunks, t.NumSeeds
	for s := 0; s < ns; s++ {
		for c := 0; c < nc; c++ {
			if got, want := t.Contrib[s*nc+c], oc[c*ns+s]; got != want {
				return fmt.Errorf("cell (s=%d,c=%d) = %d, chunk-major oracle %d", s, c, got, want)
			}
		}
		if t.Totals[s] != ot[s] {
			return fmt.Errorf("total[%d] = %d, chunk-major oracle %d", s, t.Totals[s], ot[s])
		}
	}
	sameSel := func(a, b Result) bool {
		return a.Seed == b.Seed && a.Score == b.Score && a.SumScores == b.SumScores
	}
	oracle := &ContribTable{NumSeeds: ns, NumChunks: 1, Contrib: ot, Totals: ot}
	if got, want := t.SelectSeed(), oracle.SelectSeed(); !sameSel(got, want) {
		return fmt.Errorf("flat selection %+v diverges from oracle %+v", got, want)
	}
	if got, want := t.SelectSeedBitwise(seedBits), oracle.SelectSeedBitwise(seedBits); !sameSel(got, want) {
		return fmt.Errorf("bitwise selection %+v diverges from oracle %+v", got, want)
	}
	return nil
}

// convergeCast computes Totals[s] = Σ_c Contrib[s·NumChunks+c]: each
// seed's total is one unit-stride reduce of its in-place row
// (kernel.Sum's blocked accumulation), with seeds partitioned across the
// runner's workers — no per-worker partial vectors, no combine pass, no
// allocation. Exact integer addition makes the blocked reduce
// bit-identical to the MPC-faithful oracle's tree-order combine (and to
// any worker count).
func (t *ContribTable) convergeCast() {
	if cap(t.Totals) < t.NumSeeds {
		t.Totals = make([]int64, t.NumSeeds)
	} else {
		t.Totals = t.Totals[:t.NumSeeds]
	}
	nc := t.NumChunks
	contrib, totals := t.Contrib, t.Totals
	if t.run.Workers(t.NumSeeds) == 1 {
		// Inline loop, allocation-free: see BuildTable.
		for s := 0; s < t.NumSeeds; s++ {
			totals[s] = kernel.Sum(contrib[s*nc : (s+1)*nc])
		}
	} else {
		t.run.ForChunked(t.NumSeeds, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				totals[s] = kernel.Sum(contrib[s*nc : (s+1)*nc])
			}
		})
	}
}

// SelectSeed returns the minimum-total seed (smallest seed on ties): the
// same Result the naive SelectSeed computes, by pure table aggregation.
// Evals counts the table build's fill calls — one per seed.
func (t *ContribTable) SelectSeed() Result {
	min, arg := t.run.ReduceMin(t.NumSeeds, func(i int) int64 { return t.Totals[i] })
	var sum int64
	for _, s := range t.Totals {
		sum += s
	}
	return Result{Seed: uint64(arg), Score: min, SumScores: sum, NumSeeds: t.NumSeeds, Evals: t.NumSeeds}
}

// SelectSeedBitwise runs the bit-by-bit method of conditional expectations
// over the precomputed totals: each level's branch means are subset sums of
// Totals, so no seed is ever re-evaluated — the naive bitwise path's
// ~2^(d+1) scorer calls collapse to the 2^d fill calls of the table build.
// The returned Result (seed, score, sum, certificate) is identical to naive
// SelectSeedBitwise over the same objective.
func (t *ContribTable) SelectSeedBitwise(seedBits int) Result {
	if seedBits <= 0 || seedBits > 30 || 1<<seedBits != t.NumSeeds {
		panic("condexp: seedBits does not match table seed space")
	}
	d := seedBits
	var prefix uint64
	var totalSum, chosen int64
	for level := 0; level < d; level++ {
		rem := d - level - 1
		n := 1 << rem
		branch := func(b uint64) int64 {
			base := prefix | b<<uint(level)
			return t.run.ReduceChunked(n, func(lo, hi int) int64 {
				var acc int64
				for i := lo; i < hi; i++ {
					acc += t.Totals[base|uint64(i)<<uint(level+1)]
				}
				return acc
			})
		}
		sum0, sum1 := branch(0), branch(1)
		if level == 0 {
			totalSum = sum0 + sum1
		}
		if sum1 < sum0 {
			prefix |= 1 << uint(level)
			chosen = sum1
		} else {
			chosen = sum0
		}
	}
	// At the last level each branch sum is a single seed's total, so the
	// chosen branch's sum is exactly Totals[prefix].
	return Result{Seed: prefix, Score: chosen, SumScores: totalSum, NumSeeds: t.NumSeeds, Evals: t.NumSeeds}
}
