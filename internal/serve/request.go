package serve

import (
	"fmt"
	"time"

	"parcolor"
	"parcolor/internal/graph"
)

// GraphSpec names the instance's graph, in exactly one of two forms:
// an explicit edge list (N plus Edges, 0-based ids, duplicates and
// self-loops dropped with Builder semantics), or a named deterministic
// generator (Generator, N, Seed — the names GenerateGraph accepts).
type GraphSpec struct {
	// N is the node count (required in both forms).
	N int `json:"n"`
	// Edges is the explicit edge list form. It is never omitted: an empty
	// non-nil list is an edgeless graph and marshals as [], while nil
	// marshals as null, which decodes as absent.
	Edges [][2]int32 `json:"edges"`
	// Generator is the named-generator form ("gnp-sparse", "mixed", …).
	Generator string `json:"generator,omitempty"`
	// Seed drives the generator form.
	Seed uint64 `json:"seed,omitempty"`
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	Graph GraphSpec `json:"graph"`
	// Palettes selects the palette regime: "trivial" (default; each node
	// gets {0..deg(v)}) or "deltaplus1" ({0..Δ} everywhere).
	Palettes string `json:"palettes,omitempty"`
	// Algorithm is a parcolor.AlgorithmByName name (default
	// "deterministic").
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives the randomized algorithms (randomized, jp, luby);
	// ignored by the others.
	Seed uint64 `json:"seed,omitempty"`
	// SeedBits caps the derandomizer's PRG seed space (0 = auto).
	SeedBits int `json:"seed_bits,omitempty"`
	// Bitwise selects bit-by-bit conditional expectations.
	Bitwise bool `json:"bitwise,omitempty"`
	// DegreeShard solves on the degree-sorted relabeling.
	DegreeShard bool `json:"degree_shard,omitempty"`
	// TimeoutMillis lowers the server's per-request solve deadline for
	// this request (0 = server default; values above the server default
	// are clamped down to it).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the content-addressed cache for this request
	// (neither reads nor populates it).
	NoCache bool `json:"no_cache,omitempty"`
	// IncludeColors returns the full color vector, not just the summary.
	IncludeColors bool `json:"include_colors,omitempty"`
}

// SolveResponse is the POST /v1/solve success body.
type SolveResponse struct {
	N              int     `json:"n"`
	M              int     `json:"m"`
	Algorithm      string  `json:"algorithm"`
	DistinctColors int     `json:"distinct_colors"`
	Rounds         int     `json:"rounds"`
	Cached         bool    `json:"cached"`
	CacheKey       string  `json:"cache_key,omitempty"`
	ElapsedMillis  float64 `json:"elapsed_ms"`
	Colors         []int32 `json:"colors,omitempty"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// paletteMode normalizes the palette field ("" → "trivial").
func (r *SolveRequest) paletteMode() (string, error) {
	switch r.Palettes {
	case "", "trivial":
		return "trivial", nil
	case "deltaplus1":
		return "deltaplus1", nil
	}
	return "", fmt.Errorf("unknown palettes %q (want trivial or deltaplus1)", r.Palettes)
}

// solveConfig is the solver configuration a request selects: the five
// request-settable fields, with the algorithm name resolved.
// writeOptions folds it into the cache address, and handleSolve builds
// the request's Solver from it.
type solveConfig struct {
	alg         parcolor.Algorithm
	seed        uint64
	seedBits    int
	bitwise     bool
	degreeShard bool
}

// config maps the request's solver knobs onto its solveConfig.
func (r *SolveRequest) config() (solveConfig, error) {
	name := r.Algorithm
	if name == "" {
		name = "deterministic"
	}
	alg, err := parcolor.AlgorithmByName(name)
	if err != nil {
		return solveConfig{}, err
	}
	return solveConfig{
		alg:         alg,
		seed:        r.Seed,
		seedBits:    r.SeedBits,
		bitwise:     r.Bitwise,
		degreeShard: r.DegreeShard,
	}, nil
}

// timeout resolves the request's effective solve deadline under the
// server default: requests may lower it, never raise it. The comparison
// runs in milliseconds, so no timeout_ms overflows the conversion.
func (r *SolveRequest) timeout(serverDefault time.Duration) time.Duration {
	if r.TimeoutMillis <= 0 || r.TimeoutMillis > serverDefault.Milliseconds() {
		return serverDefault
	}
	return time.Duration(r.TimeoutMillis) * time.Millisecond
}

// maxArcsPerNode scales MaxNodes into the bounds on a request's arcs
// (generator specs, estimated before building) and on its Δ+1 palette
// entries (n·(Δ+1), checked before the palettes exist). 64 admits every
// generator of bounded degree at n = MaxNodes (the densest, cliques, has
// about 32 arcs per node) and stops complete, gnp-dense and Δ+1 palettes
// on high-degree graphs such as a star long before they exhaust memory.
const maxArcsPerNode = 64

// validate checks the spec before any cache key is computed or graph
// built: n in (0, maxNodes], exactly one of the two forms, and for the
// generator form a known name whose estimated arc count is in bounds.
func (s *GraphSpec) validate(maxNodes int) error {
	if s.N <= 0 {
		return fmt.Errorf("graph.n must be positive, got %d", s.N)
	}
	if s.N > maxNodes {
		return fmt.Errorf("graph.n %d exceeds the server's limit %d", s.N, maxNodes)
	}
	hasEdges, hasGen := s.Edges != nil, s.Generator != ""
	switch {
	case hasEdges && hasGen:
		return fmt.Errorf("graph gives both edges and generator; pick one")
	case !hasEdges && !hasGen:
		return fmt.Errorf("graph needs either edges or a generator name")
	case hasGen:
		arcs, err := graph.NamedArcs(s.Generator, s.N)
		if err != nil {
			return err
		}
		if limit := maxArcsPerNode * float64(maxNodes); arcs > limit {
			return fmt.Errorf("graph %q at n=%d has about %.3g arcs, above the server's limit %.3g", s.Generator, s.N, arcs, limit)
		}
	}
	return nil
}

// buildGraph materializes a validated spec's graph and, under Δ+1
// palettes, rejects it when the n·(Δ+1) palette entries would exceed the
// bound maxArcsPerNode·maxNodes.
func (s *GraphSpec) buildGraph(paletteMode string, maxNodes int) (*parcolor.Graph, error) {
	var g *parcolor.Graph
	if s.Generator != "" {
		var err error
		if g, err = graph.Named(s.Generator, s.N, s.Seed); err != nil {
			return nil, err
		}
	} else {
		b := graph.NewBuilder(s.N)
		b.Reserve(len(s.Edges))
		for i, e := range s.Edges {
			u, v := e[0], e[1]
			if u < 0 || v < 0 || int(u) >= s.N || int(v) >= s.N {
				return nil, fmt.Errorf("edge %d (%d,%d) out of range n=%d", i, u, v, s.N)
			}
			b.AddEdge(u, v)
		}
		g = b.Build()
	}
	if paletteMode == "deltaplus1" {
		entries, limit := float64(g.N())*float64(g.MaxDegree()+1), maxArcsPerNode*float64(maxNodes)
		if entries > limit {
			return nil, fmt.Errorf("deltaplus1 palettes on n=%d, Δ=%d need %.3g entries, above the server's limit %.3g", g.N(), g.MaxDegree(), entries, limit)
		}
	}
	return g, nil
}

// buildInstance wraps the graph in the requested palette regime.
func buildInstance(g *parcolor.Graph, paletteMode string) *parcolor.Instance {
	if paletteMode == "deltaplus1" {
		return parcolor.DeltaPlus1Palettes(g)
	}
	return parcolor.TrivialPalettes(g)
}
