package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parcolor"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func postSolve(t *testing.T, url string, req SolveRequest) (*SolveResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &sr, resp
}

// TestEndToEndMixedConcurrent is the acceptance path: concurrent
// mixed-algorithm solves over HTTP must return proper colorings that are
// bit-identical to a direct Solver.Solve with the same options.
func TestEndToEndMixedConcurrent(t *testing.T) {
	// Admission is sized so the 15-cell burst is never shed — overload
	// behavior has its own test below.
	_, hs := newTestServer(t, Config{Workers: 2, MaxInflight: 4, MaxQueue: 32})

	type cell struct {
		gen  string
		n    int
		alg  string
		seed uint64
	}
	var cells []cell
	for i, alg := range []string{"deterministic", "jp", "luby", "greedy", "lowdeg"} {
		for j, gen := range []string{"mixed", "gnp-sparse", "cliques"} {
			cells = append(cells, cell{gen: gen, n: 120 + 40*j, alg: alg, seed: uint64(i*10 + j + 1)})
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(cells))
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			errs[i] = func() error {
				sr, resp := postSolve(t, hs.URL, SolveRequest{
					Graph:         GraphSpec{Generator: c.gen, N: c.n, Seed: c.seed},
					Algorithm:     c.alg,
					Seed:          c.seed,
					IncludeColors: true,
				})
				if sr == nil {
					return fmt.Errorf("%s/%s: HTTP %d", c.gen, c.alg, resp.StatusCode)
				}
				g := parcolor.GenerateGraph(c.gen, c.n, c.seed)
				in := parcolor.TrivialPalettes(g)
				if err := parcolor.Verify(in, &parcolor.Coloring{Colors: sr.Colors}); err != nil {
					return fmt.Errorf("%s/%s: served coloring invalid: %v", c.gen, c.alg, err)
				}
				alg, err := parcolor.AlgorithmByName(c.alg)
				if err != nil {
					return err
				}
				sv, err := parcolor.NewSolver(parcolor.WithAlgorithm(alg), parcolor.WithSeed(c.seed))
				if err != nil {
					return err
				}
				direct, err := sv.Solve(context.Background(), in)
				if err != nil {
					return err
				}
				if len(direct.Coloring.Colors) != len(sr.Colors) {
					return fmt.Errorf("%s/%s: length mismatch", c.gen, c.alg)
				}
				for v := range sr.Colors {
					if sr.Colors[v] != direct.Coloring.Colors[v] {
						return fmt.Errorf("%s/%s: served color[%d]=%d differs from direct %d",
							c.gen, c.alg, v, sr.Colors[v], direct.Coloring.Colors[v])
					}
				}
				if sr.DistinctColors != direct.DistinctColors {
					return fmt.Errorf("%s/%s: distinct %d vs direct %d", c.gen, c.alg, sr.DistinctColors, direct.DistinctColors)
				}
				return nil
			}()
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestEdgeListFormMatchesGenerator solves an explicitly posted edge list
// and checks the coloring against the locally built instance.
func TestEdgeListFormMatchesGenerator(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	g := parcolor.GenerateGraph("mixed", 150, 3)
	edges := g.Edges(nil)
	sr, resp := postSolve(t, hs.URL, SolveRequest{
		Graph:         GraphSpec{N: g.N(), Edges: edges},
		Algorithm:     "jp",
		Seed:          3,
		IncludeColors: true,
	})
	if sr == nil {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if sr.M != g.M() {
		t.Fatalf("served M=%d, want %d", sr.M, g.M())
	}
	in := parcolor.TrivialPalettes(g)
	if err := parcolor.Verify(in, &parcolor.Coloring{Colors: sr.Colors}); err != nil {
		t.Fatalf("served coloring invalid: %v", err)
	}
}

// TestOverloadRejectsWith429 induces overload on a 1-slot, 1-queue server
// and requires load shedding: extra concurrent requests answered 429 with
// a Retry-After, while admitted requests still succeed.
func TestOverloadRejectsWith429(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, MaxInflight: 1, MaxQueue: 1})

	const clients = 8
	codes := make([]int, clients)
	retryAfters := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(SolveRequest{
				// Unique seeds: no request may ride the cache past admission.
				// Large enough (~100ms wall) that the 8-client burst
				// reliably overlaps the single slot.
				Graph:     GraphSpec{Generator: "gnp-sparse", N: 30000, Seed: uint64(100 + i)},
				Algorithm: "deterministic",
				NoCache:   true,
			})
			resp, err := http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	ok, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			ra, err := strconv.Atoi(retryAfters[i])
			if err != nil || ra < 1 {
				t.Errorf("429 without usable Retry-After header: %q", retryAfters[i])
			}
		default:
			t.Errorf("client %d: unexpected HTTP %d", i, code)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if rejected == 0 {
		t.Errorf("no request was shed: codes=%v (watermark never crossed?)", codes)
	}
}

// TestCacheServesRepeatedInstance is the repeated-graph fast path: the
// second identical request must be served from the content-addressed
// cache, bit-identical to the cold solve, with the hit counter moving.
func TestCacheServesRepeatedInstance(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	req := SolveRequest{
		Graph:         GraphSpec{Generator: "mixed", N: 300, Seed: 7},
		Algorithm:     "deterministic",
		IncludeColors: true,
	}
	cold, resp := postSolve(t, hs.URL, req)
	if cold == nil {
		t.Fatalf("cold solve: HTTP %d", resp.StatusCode)
	}
	if cold.Cached {
		t.Fatal("cold solve claims cached")
	}
	hot, resp := postSolve(t, hs.URL, req)
	if hot == nil {
		t.Fatalf("hot solve: HTTP %d", resp.StatusCode)
	}
	if !hot.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if hot.CacheKey != cold.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", hot.CacheKey, cold.CacheKey)
	}
	if len(hot.Colors) != len(cold.Colors) {
		t.Fatal("cached color vector length differs")
	}
	for v := range hot.Colors {
		if hot.Colors[v] != cold.Colors[v] {
			t.Fatalf("cached color[%d]=%d differs from cold %d", v, hot.Colors[v], cold.Colors[v])
		}
	}
	if st := s.CacheStats(); st.Hits < 1 {
		t.Fatalf("cache hit counter did not increment: %+v", st)
	}
	if hot.M != cold.M || hot.Rounds != cold.Rounds || hot.DistinctColors != cold.DistinctColors {
		t.Fatalf("cached summary differs: %+v vs %+v", hot, cold)
	}
}

// TestEdgeListCanonicalization: the same simple graph posted with
// reversed orientations, shuffled order and duplicate edges must address
// the same cache line.
func TestEdgeListCanonicalization(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	g := parcolor.GenerateGraph("cliques", 96, 5)
	edges := g.Edges(nil)

	first, resp := postSolve(t, hs.URL, SolveRequest{
		Graph: GraphSpec{N: g.N(), Edges: edges}, Algorithm: "greedy",
	})
	if first == nil {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	// Reverse every edge, reverse the list, and duplicate the first edge.
	flipped := make([][2]int32, 0, len(edges)+1)
	for i := len(edges) - 1; i >= 0; i-- {
		flipped = append(flipped, [2]int32{edges[i][1], edges[i][0]})
	}
	flipped = append(flipped, flipped[0])
	second, resp := postSolve(t, hs.URL, SolveRequest{
		Graph: GraphSpec{N: g.N(), Edges: flipped}, Algorithm: "greedy",
	})
	if second == nil {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if second.CacheKey != first.CacheKey {
		t.Fatal("canonicalization failed: permuted edge list addressed a different cache line")
	}
	if !second.Cached {
		t.Fatal("permuted identical graph missed the cache")
	}
}

func TestHealthzMetricsStats(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	if sr, resp := postSolve(t, hs.URL, SolveRequest{
		Graph: GraphSpec{Generator: "mixed", N: 200, Seed: 1}, Algorithm: "luby",
	}); sr == nil {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}

	get := func(path string) string {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/healthz"); !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz body: %s", body)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		"colord_requests_total 1", "colord_cache_misses_total 1",
		"colord_latency_p99_ms", "colord_phase_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	var st Stats
	if err := json.Unmarshal([]byte(get("/stats")), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Requests != 1 || st.Solved != 1 || len(st.Phases) == 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	// The windowed variant drains the per-window trace aggregates: a
	// second windowed read with no traffic in between sees no phases.
	var w1, w2 Stats
	json.Unmarshal([]byte(get("/stats?window=1")), &w1)
	json.Unmarshal([]byte(get("/stats?window=1")), &w2)
	if len(w1.Phases) == 0 {
		t.Fatal("first windowed stats lost the phases")
	}
	if len(w2.Phases) != 0 {
		t.Fatalf("window reset failed: second read still has %d phases", len(w2.Phases))
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, MaxNodes: 1000})
	cases := []struct {
		name string
		req  SolveRequest
	}{
		{"unknown algorithm", SolveRequest{Graph: GraphSpec{Generator: "mixed", N: 50}, Algorithm: "quantum"}},
		{"unknown palettes", SolveRequest{Graph: GraphSpec{Generator: "mixed", N: 50}, Palettes: "rainbow"}},
		{"both forms", SolveRequest{Graph: GraphSpec{Generator: "mixed", N: 3, Edges: [][2]int32{{0, 1}}}}},
		{"neither form", SolveRequest{Graph: GraphSpec{N: 50}}},
		{"n too large", SolveRequest{Graph: GraphSpec{Generator: "mixed", N: 100000}}},
		{"edge out of range", SolveRequest{Graph: GraphSpec{N: 2, Edges: [][2]int32{{0, 5}}}}},
		{"unknown generator", SolveRequest{Graph: GraphSpec{Generator: "hypercube", N: 50}}},
	}
	for _, c := range cases {
		sr, resp := postSolve(t, hs.URL, c.req)
		if sr != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", c.name, resp.StatusCode)
		}
	}
	// Wrong method on the solve route.
	resp, err := http.Get(hs.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: want 405, got %d", resp.StatusCode)
	}
}

// TestRequestTimeoutClamp pins the deadline a timeout_ms resolves to under
// a 60 s server default, including values whose conversion to a Duration
// would overflow.
func TestRequestTimeoutClamp(t *testing.T) {
	def := 60 * time.Second
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{-5, def},
		{0, def},
		{250, 250 * time.Millisecond},
		{60_000, def},
		{60_001, def},
		{10_000_000_000_000, def},
		{math.MaxInt64, def},
	}
	for _, c := range cases {
		r := SolveRequest{TimeoutMillis: c.ms}
		if got := r.timeout(def); got != c.want {
			t.Errorf("timeout_ms %d: got %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestSpecCheckedBeforeCacheProbe sends a spec naming both a generator and
// edges before and after its generator-only form is cached: both must be
// rejected, the second without being answered from the cache.
func TestSpecCheckedBeforeCacheProbe(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	gen := GraphSpec{Generator: "cycle", N: 10, Seed: 1}
	both := gen
	both.Edges = [][2]int32{{0, 1}}
	for i, spec := range []GraphSpec{both, gen, both} {
		want := http.StatusBadRequest
		if spec.Edges == nil {
			want = http.StatusOK
		}
		if _, resp := postSolve(t, hs.URL, SolveRequest{Graph: spec}); resp.StatusCode != want {
			t.Errorf("request %d: want %d, got %d", i, want, resp.StatusCode)
		}
	}
}

// TestQuadraticRequestsRejected: a complete graph at n = MaxNodes and a
// star edge list under Δ+1 palettes both need quadratic memory, so both
// are answered 400 before any solve starts.
func TestQuadraticRequestsRejected(t *testing.T) {
	const n = 1500
	s, hs := newTestServer(t, Config{Workers: 1, MaxNodes: n})
	star := make([][2]int32, n-1)
	for i := range star {
		star[i] = [2]int32{0, int32(i + 1)}
	}
	for name, req := range map[string]SolveRequest{
		"complete":        {Graph: GraphSpec{Generator: "complete", N: n}},
		"star deltaplus1": {Graph: GraphSpec{N: n, Edges: star}, Palettes: "deltaplus1"},
	} {
		if sr, resp := postSolve(t, hs.URL, req); sr != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", name, resp.StatusCode)
		}
	}
	if st := s.stats(false); st.Solved != 0 || st.Inflight != 0 {
		t.Fatalf("rejected requests reached the solver: %+v", st)
	}
}

// TestEveryBoundedDegreeGeneratorAdmitted checks that the arc bound admits
// every generator except the two quadratic ones at the default MaxNodes.
func TestEveryBoundedDegreeGeneratorAdmitted(t *testing.T) {
	const maxNodes = 2_000_000
	for _, name := range parcolor.GraphNames() {
		err := (&GraphSpec{Generator: name, N: maxNodes}).validate(maxNodes)
		quadratic := name == "complete" || name == "gnp-dense"
		if quadratic != (err != nil) {
			t.Errorf("%s at n=%d: validate = %v", name, maxNodes, err)
		}
	}
}

// TestRequestTimeoutAnswers504: a request-supplied deadline far below the
// solve time must come back 504 without wedging the slot.
func TestRequestTimeoutAnswers504(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, MaxInflight: 1})
	body, _ := json.Marshal(SolveRequest{
		// A solve of about a second against a 30ms deadline: the deadline
		// always wins.
		Graph:         GraphSpec{Generator: "powerlaw", N: 100000, Seed: 9},
		Algorithm:     "deterministic",
		TimeoutMillis: 30,
		NoCache:       true,
	})
	resp, err := http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Inflight() == 0 })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %s", d)
}

// TestInvalidSolverOptionsRejectedBeforeAdmission: a request whose solver
// options NewSolver rejects (seed_bits outside [0, 24]) is answered 400
// at once while the only solve slot is held, instead of waiting in the
// admission queue.
func TestInvalidSolverOptionsRejectedBeforeAdmission(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, MaxInflight: 1})
	release, _, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	client := &http.Client{Timeout: 3 * time.Second}
	for _, bits := range []int{-1, 25} {
		body, _ := json.Marshal(SolveRequest{
			Graph:    GraphSpec{Generator: "gnp-sparse", N: 500, Seed: 1},
			SeedBits: bits,
		})
		resp, err := client.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("seed_bits %d: %v", bits, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("seed_bits %d: status %d, want 400", bits, resp.StatusCode)
		}
	}
}
