package deframe

import (
	"fmt"
	"sync"

	"parcolor/internal/bitset"
	"parcolor/internal/condexp"
	"parcolor/internal/d1lc"
	"parcolor/internal/graph"
	"parcolor/internal/hknt"
	"parcolor/internal/par"
	"parcolor/internal/prg"
)

// Cache holds the derandomizer's reusable allocations across steps — and,
// when owned by a long-lived Solver, across whole solves: contribution
// tables (the [seeds × chunks] grids of every Lemma 10 selection) and the
// per-worker seed-evaluation scratch (reseedable PRG expansion buffers,
// hknt trial arenas, participant win masks). Everything inside is
// sync.Pool-backed, so a Cache is safe for concurrent solves and sheds
// memory under GC pressure.
//
// A nil *Cache is valid and means "per-step pooling only": each step
// builds its own ephemeral pools, the pre-Cache behavior.
type Cache struct {
	tables  condexp.TableCache
	scratch sync.Pool // of *seedScratch
	states  hknt.StatePool
	reduce  sync.Pool // of *d1lc.ReduceArena

	// chunks memoizes chunkAssignment per (graph identity, radius, edge
	// budget) — but only for graphs the caller declared reusable
	// (Options.MemoGraph), so per-solve throwaway graphs never enter it:
	// graphs are immutable and the assignment is deterministic, so
	// repeated solves of the same instance skip the power-graph
	// construction — the single largest allocation of a warm solve. The
	// map is bounded (cleared when full) and holding the *Graph key keeps
	// it alive, so a recycled address can never alias a different graph.
	chunksMu sync.Mutex
	chunks   map[chunkKey]chunkVal
}

type chunkKey struct {
	g                *graph.Graph
	radius, maxEdges int
}

type chunkVal struct {
	chunkOf   []int32
	numChunks int
	mode      string
}

// maxChunkMemo bounds the memo; when full it is reset wholesale (the
// entries are pure caches, recomputable at the cost of one PowerGraph).
// The bound is deliberately small: each key pins its graph alive, and the
// win case is repeated solves of the same instance (whose top-level graph
// pointer recurs), while recursion residuals and sparsify sub-instances
// are fresh graphs every solve — those churn through the memo and must
// not accumulate.
const maxChunkMemo = 8

// getChunks returns the (possibly memoized) chunk assignment for g,
// constructing — when the memo misses — on r's workers so the solve's
// budget bounds the power-graph build. Only memoize-marked graphs (the
// caller's reusable root) touch the memo. The returned slice is shared
// and must be treated as read-only — every consumer only indexes it.
func (c *Cache) getChunks(r *par.Runner, g *graph.Graph, radius, maxEdges int, memoize bool) ([]int32, int, string) {
	if c == nil || !memoize {
		return chunkAssignment(r, g, radius, maxEdges)
	}
	key := chunkKey{g: g, radius: radius, maxEdges: maxEdges}
	c.chunksMu.Lock()
	if v, ok := c.chunks[key]; ok {
		c.chunksMu.Unlock()
		return v.chunkOf, v.numChunks, v.mode
	}
	c.chunksMu.Unlock()
	chunkOf, numChunks, mode := chunkAssignment(r, g, radius, maxEdges)
	c.chunksMu.Lock()
	if c.chunks == nil || len(c.chunks) >= maxChunkMemo {
		c.chunks = make(map[chunkKey]chunkVal, maxChunkMemo)
	}
	c.chunks[key] = chunkVal{chunkOf: chunkOf, numChunks: numChunks, mode: mode}
	c.chunksMu.Unlock()
	return chunkOf, numChunks, mode
}

// NewCache returns an empty cache. One Cache may serve any number of
// sequential or concurrent Runs.
func NewCache() *Cache { return &Cache{} }

// tableCache returns the condexp table pool (nil for a nil cache:
// allocate-fresh builds).
func (c *Cache) tableCache() *condexp.TableCache {
	if c == nil {
		return nil
	}
	return &c.tables
}

// getState returns a run state, recycling pooled backing arrays when the
// cache is live.
func (c *Cache) getState(in *d1lc.Instance) *hknt.State {
	if c == nil {
		return hknt.NewState(in)
	}
	return c.states.Get(in)
}

// putState recycles a run state's backing arrays (the coloring, which the
// caller returned, is detached). No-op on a nil cache.
func (c *Cache) putState(st *hknt.State) {
	if c != nil {
		c.states.Put(st)
	}
}

// getReduceArena checks a self-reduction arena out of the cache (fresh on
// a nil cache). Each recursion level holds its own arena for the lifetime
// of its residual instance — checked out before ReduceUncolored, returned
// only after the recursive solve and the coloring write-back complete, so
// at most maxDepth arenas are live at once.
func (c *Cache) getReduceArena() *d1lc.ReduceArena {
	if c != nil {
		if a, _ := c.reduce.Get().(*d1lc.ReduceArena); a != nil {
			return a
		}
	}
	return d1lc.NewReduceArena()
}

// putReduceArena returns an arena for reuse. No-op on a nil cache.
func (c *Cache) putReduceArena(a *d1lc.ReduceArena) {
	if c != nil {
		c.reduce.Put(a)
	}
}

// getScratch checks a seed-evaluation scratch out of the cache and
// retargets it to the engine's (generator, chunk layout, participant)
// shape. Retargeting an already-matching scratch — the steady state when
// one step's fill loop checks the same objects in and out — is a few
// comparisons.
func (c *Cache) getScratch(e *stepEngine) *seedScratch {
	var ss *seedScratch
	if c != nil {
		ss, _ = c.scratch.Get().(*seedScratch)
	}
	if ss == nil {
		ss = &seedScratch{sc: hknt.NewScratch()}
	}
	if ss.src == nil {
		src, err := prg.NewChunkedScratch(e.gen, e.chunkOf, e.numChunks, e.step.Bits)
		if err != nil {
			// Generator too short is a construction bug; make it loud.
			panic(fmt.Sprintf("deframe: %v", err))
		}
		ss.src = src
	} else if err := ss.src.Retarget(e.gen, e.chunkOf, e.numChunks, e.step.Bits); err != nil {
		panic(fmt.Sprintf("deframe: %v", err))
	}
	ss.partsWin = ss.partsWin.Grow(len(e.parts))
	return ss
}

// putScratch returns a scratch for reuse. No-op on a nil cache (the
// object is garbage-collected as before pooling).
func (c *Cache) putScratch(ss *seedScratch) {
	if c != nil {
		c.scratch.Put(ss)
	}
}

// seedScratch is one worker's reusable evaluation state. partsWin is the
// dense participant-index win mask the popcount scoring path gathers into.
type seedScratch struct {
	src      *prg.ChunkedScratch
	sc       *hknt.Scratch
	partsWin bitset.Mask
}
