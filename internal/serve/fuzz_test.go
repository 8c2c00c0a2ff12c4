package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parcolor"
)

// fuzzBodyBytes is the fuzzed server's body limit: small, so the limit
// itself is part of what the fuzzer reaches.
const fuzzBodyBytes = 8 << 10

// FuzzDecodeRequest posts arbitrary bytes as a POST /v1/solve body to an
// in-process Server and checks the boundary contract:
//
//   - the status is 200, 400 or 504 (a deadline the request itself may
//     lower); never a panic, never another status;
//   - a 200 that carries colors verifies against the instance its spec
//     builds;
//   - the cache key is a content address: the same edge list in reverse
//     order with every edge given twice gets the same key, and changing
//     any one result-affecting field (algorithm, palettes, seed_bits,
//     bitwise, degree_shard) changes it.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]},"include_colors":true}`,
		`{"graph":{"n":6,"edges":[[0,1],[0,2],[1,2],[3,3],[4,5],[5,4]]},"algorithm":"lowdeg","palettes":"deltaplus1","include_colors":true}`,
		`{"graph":{"n":40,"generator":"mixed","seed":3},"algorithm":"deterministic","seed_bits":4,"bitwise":true,"include_colors":true}`,
		`{"graph":{"n":30,"generator":"gnp-sparse"},"algorithm":"jp","degree_shard":true,"seed":7,"include_colors":true}`,
		`{"graph":{"n":3,"edges":[[0,1]]},"algorithm":"luby","no_cache":true,"timeout_ms":1}`,
		`{"graph":{"n":1,"edges":[]}}`,
		`{"graph":{"n":3,"edges":[[0,7]]}}`,
		`{"graph":{"n":65,"generator":"mixed"}}`,
		`{"graph":{"n":4,"edges":[],"generator":"mixed"}}`,
		`{"graph":{"n":4},"algorithm":"nope"}`,
		`{"graph":{"n":4,"edges":[[0,1]]},"seed_bits":99}`,
		`{"graph":{"n":4,"edges":[[0,1]]},"unknown":1}`,
		`{"graph":`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{Workers: 1, MaxInflight: 1, MaxNodes: 64, MaxBodyBytes: fuzzBodyBytes, DefaultTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		status, resp := fuzzPost(t, s, body)
		if status != http.StatusOK {
			return
		}
		// The server accepted the body, so it decodes the same way here.
		var req SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("server accepted a body that does not decode: %v", err)
		}
		if resp.Colors != nil {
			mode, err := req.paletteMode()
			if err != nil {
				t.Fatal(err)
			}
			g, err := req.Graph.buildGraph(mode, 64)
			if err != nil {
				t.Fatalf("server solved a spec that does not build: %v", err)
			}
			if err := parcolor.Verify(buildInstance(g, mode), &parcolor.Coloring{Colors: resp.Colors}); err != nil {
				t.Fatalf("returned coloring does not verify: %v", err)
			}
		}

		if len(req.Graph.Edges) > 0 {
			v := req
			v.Graph.Edges = nil
			for i := len(req.Graph.Edges) - 1; i >= 0; i-- {
				e := req.Graph.Edges[i]
				v.Graph.Edges = append(v.Graph.Edges, e, [2]int32{e[1], e[0]})
			}
			if key, ok := fuzzKey(t, s, v); ok && key != resp.CacheKey {
				t.Fatalf("reversed, duplicated edge list keyed %s, original %s", key, resp.CacheKey)
			}
		}
		conf, err := req.config()
		if err != nil {
			t.Fatal(err)
		}
		other := "deterministic"
		if conf.alg == parcolor.Deterministic {
			other = "jp"
		}
		palettes := "deltaplus1"
		if req.Palettes == "deltaplus1" {
			palettes = "trivial"
		}
		seedBits := 1
		if req.SeedBits == 1 {
			seedBits = 2
		}
		for name, change := range map[string]func(*SolveRequest){
			"algorithm":    func(r *SolveRequest) { r.Algorithm = other },
			"palettes":     func(r *SolveRequest) { r.Palettes = palettes },
			"seed_bits":    func(r *SolveRequest) { r.SeedBits = seedBits },
			"bitwise":      func(r *SolveRequest) { r.Bitwise = !r.Bitwise },
			"degree_shard": func(r *SolveRequest) { r.DegreeShard = !r.DegreeShard },
		} {
			v := req
			change(&v)
			if key, ok := fuzzKey(t, s, v); ok && key == resp.CacheKey {
				t.Fatalf("changing %s kept the key %s", name, key)
			}
		}
	})
}

// fuzzPost posts body to s and enforces the status contract, returning
// the decoded response of a 200.
func fuzzPost(t *testing.T, s *Server, body []byte) (int, *SolveResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK:
	case http.StatusBadRequest, http.StatusGatewayTimeout:
		return rec.Code, nil
	default:
		t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("200 with an undecodable body %q: %v", rec.Body.Bytes(), err)
	}
	if resp.CacheKey == "" {
		t.Fatalf("200 without a cache key: %s", rec.Body.Bytes())
	}
	return rec.Code, &resp
}

// fuzzKey posts a variant of an accepted request and returns its cache
// key. A variant too large for the body limit, or whose solve runs past
// the deadline, has no key to compare (ok is false); any other failure of
// a variant of an accepted request is a bug.
func fuzzKey(t *testing.T, s *Server, req SolveRequest) (key string, ok bool) {
	t.Helper()
	req.IncludeColors = false
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > fuzzBodyBytes {
		return "", false
	}
	status, resp := fuzzPost(t, s, body)
	switch status {
	case http.StatusOK:
		return resp.CacheKey, true
	case http.StatusGatewayTimeout:
		return "", false
	}
	t.Fatalf("variant %s of an accepted request answered %d", body, status)
	return "", false
}
