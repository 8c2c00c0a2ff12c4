// Serving: the coloring service end to end — an in-process colord
// server (internal/serve) driven over real loopback HTTP by a mixed
// workload of generator-spec requests. The server owns admission
// control, a Solver per request, and the content-addressed instance
// cache; the client side of this example is exactly what an external
// caller of `cmd/colord` would write.
//
// Half the requests repeat a small set of instances, so the run shows
// both paths: cold solves that ride a Solver with a per-request
// deadline, and repeats answered bit-identically from the cache without
// touching a solver slot.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"time"

	"parcolor/internal/serve"
)

func main() {
	// The service: 2 workers per solve, at most 3 solves in flight, and a
	// 1 MiB result cache. This is the same configuration surface
	// `cmd/colord` exposes as flags.
	srv, err := serve.New(serve.Config{Workers: 2, MaxInflight: 3, CacheBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("colord serving on %s\n\n", base)

	// The request stream: mixed workloads across generators, sizes,
	// palette regimes and algorithms.
	type reqSpec struct {
		name string
		req  serve.SolveRequest
	}
	var stream []reqSpec
	for i, gen := range []string{"mixed", "gnp-sparse", "cliques", "powerlaw", "regular", "gnp-dense"} {
		r := serve.SolveRequest{
			Graph:     serve.GraphSpec{Generator: gen, N: 250 + 50*i, Seed: uint64(i + 1)},
			Algorithm: []string{"deterministic", "jp", "luby"}[i%3],
			Seed:      uint64(i + 1),
		}
		if i%2 == 1 { // alternate palette regimes
			r.Palettes = "deltaplus1"
		}
		stream = append(stream, reqSpec{fmt.Sprintf("%s/%s", gen, r.Algorithm), r})
	}

	type outcome struct {
		name    string
		resp    serve.SolveResponse
		latency time.Duration
	}
	post := func(batch []reqSpec) []outcome {
		out := make([]outcome, len(batch))
		errs := make(chan error, len(batch))
		for i, rs := range batch {
			go func(i int, rs reqSpec) {
				body, _ := json.Marshal(rs.req)
				t0 := time.Now()
				resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: HTTP %d", rs.name, resp.StatusCode)
					return
				}
				var sr serve.SolveResponse
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					errs <- err
					return
				}
				out[i] = outcome{name: rs.name, resp: sr, latency: time.Since(t0)}
				errs <- nil
			}(i, rs)
		}
		for range batch {
			if err := <-errs; err != nil {
				log.Fatal(err)
			}
		}
		return out
	}

	// Two waves of the same stream: the first solves cold, the second is
	// answered from the content-addressed cache.
	start := time.Now()
	results := post(stream)
	results = append(results, post(stream)...)
	wall := time.Since(start)

	sort.SliceStable(results, func(i, j int) bool { return results[i].name < results[j].name })
	fmt.Printf("%-24s %-7s %7s %7s %8s %10s\n", "instance", "colors", "rounds", "n", "cached", "latency")
	hits := 0
	for _, o := range results {
		cached := "cold"
		if o.resp.Cached {
			cached = "hit"
			hits++
		}
		fmt.Printf("%-24s %-7d %7d %7d %8s %10s\n",
			o.name, o.resp.DistinctColors, o.resp.Rounds, o.resp.N, cached, o.latency.Round(time.Microsecond))
	}

	st := srv.CacheStats()
	fmt.Printf("\nserved %d requests in %s: %d cold solves, %d cache hits (%d cached bytes live)\n",
		len(results), wall.Round(time.Millisecond), len(results)-hits, hits, st.Bytes)

	// The same numbers a monitoring scrape would read from /stats.
	var stats serve.Stats
	resp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	hitRate := 0.0
	if lookups := stats.Cache.Hits + stats.Cache.Misses; lookups > 0 {
		hitRate = 100 * float64(stats.Cache.Hits) / float64(lookups)
	}
	fmt.Printf("server stats: requests=%d solved=%d cacheHitRate=%.0f%% p50=%.1fms p99=%.1fms\n",
		stats.Requests, stats.Solved, hitRate, stats.LatencyP50Ms, stats.LatencyP99Ms)
}
