// Command loadgen drives a mixed coloring workload — algorithms × graph
// generators × sizes, with a tunable repeat rate that exercises colord's
// content-addressed cache — against a live server, and streams the
// measured serving performance (latency percentiles, solves/sec, cache
// hit rate) as host-stamped test2json rows that cmd/benchdiff gates
// exactly like the seed-selection and scale streams.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -duration 15s -concurrency 8
//	loadgen -inprocess -requests 200 -out BENCH_serving.json   # self-contained
//
// With -inprocess no external server is needed: loadgen starts a colord
// server inside the process on an ephemeral port and drives it over real
// loopback HTTP — the `make bench-serving` / `bench-serving-smoke` path.
//
// Row naming keeps the benchdiff gate one-directional: every gated row
// (filter "Serving/") is lower-is-better — BenchmarkServing/…/{p50,p99}
// latency in ns and BenchmarkServing/<label>/all/ns_per_solve (inverse
// throughput). Context rows that must not gate (cache hit %, request
// counts) are emitted under BenchmarkServingInfo/…, which the "Serving/"
// filter does not match.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parcolor"
	"parcolor/internal/serve"
)

type spec struct {
	graph string
	n     int
	alg   string
	seed  uint64
}

type sample struct {
	alg     string
	latency time.Duration
	cached  bool
}

type stats struct {
	mu       sync.Mutex
	samples  []sample
	rejected atomic.Int64
	errors   atomic.Int64
	sent     atomic.Int64
}

func hostFingerprint() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s-%s-%s-%d", runtime.GOOS, runtime.GOARCH, host, runtime.NumCPU())
}

// event is the test2json line shape benchdiff parses.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "base URL of a running colord (e.g. http://localhost:8080)")
		inprocess   = flag.Bool("inprocess", false, "start an ephemeral in-process server and drive it over loopback HTTP")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive traffic")
		requests    = flag.Int64("requests", 0, "stop after this many requests (0 = duration only)")
		concurrency = flag.Int("concurrency", 8, "concurrent client workers")
		graphsArg   = flag.String("graphs", "mixed,gnp-sparse,powerlaw", "comma-separated generator names")
		sizesArg    = flag.String("sizes", "300,800", "comma-separated vertex counts")
		algsArg     = flag.String("algs", "deterministic,jp,luby", "comma-separated algorithms")
		repeat      = flag.Float64("repeat", 0.5, "fraction of requests repeating a pooled spec (cache-hittable)")
		seed        = flag.Uint64("seed", 1, "workload seed")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		label       = flag.String("label", "mix", "workload label in benchmark row names")
		out         = flag.String("out", "BENCH_serving.json", "output test2json stream path")
		workers     = flag.Int("workers", 0, "in-process server: per-solver workers")
		maxInflight = flag.Int("max-inflight", 0, "in-process server: concurrent solves")
	)
	flag.Parse()

	algs := splitTrim(*algsArg)
	for _, a := range algs {
		if _, err := parcolor.AlgorithmByName(a); err != nil {
			fatalf("%v", err)
		}
	}
	graphs := splitTrim(*graphsArg)
	var sizes []int
	for _, s := range splitTrim(*sizesArg) {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			fatalf("bad size %q", s)
		}
		sizes = append(sizes, n)
	}

	base := *addr
	if *inprocess {
		srv, err := serve.New(serve.Config{Workers: *workers, MaxInflight: *maxInflight})
		if err != nil {
			fatalf("%v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadgen: in-process server on %s\n", base)
	}
	if base == "" {
		fatalf("need -addr or -inprocess")
	}

	// The repeat pool: one fixed-seed spec per (graph, size, algorithm)
	// cell. Repeated picks re-address the same cache line; fresh picks
	// get a unique seed and must solve.
	var pool []spec
	for _, g := range graphs {
		for _, n := range sizes {
			for _, a := range algs {
				pool = append(pool, spec{graph: g, n: n, alg: a, seed: *seed})
			}
		}
	}

	client := &http.Client{Timeout: *timeout}
	st := &stats{}
	deadline := time.Now().Add(*duration)
	var freshSeed atomic.Uint64
	freshSeed.Store(*seed + 1000)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(*seed)*1000 + int64(w)))
			for time.Now().Before(deadline) {
				if *requests > 0 && st.sent.Add(1) > *requests {
					return
				}
				sp := pool[rng.Intn(len(pool))]
				if rng.Float64() >= *repeat {
					sp.seed = freshSeed.Add(1) // unique content → cache miss
				}
				doRequest(client, base, sp, st)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st.mu.Lock()
	samples := st.samples
	st.mu.Unlock()
	if len(samples) == 0 {
		fatalf("no successful requests (server down? all rejected?)")
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	host := hostFingerprint()
	if err := enc.Encode(map[string]string{"Host": host}); err != nil {
		fatalf("%v", err)
	}
	emit := func(name string, value int64) {
		ev := event{
			Action:  "output",
			Package: "parcolor/loadgen",
			Test:    name,
			Output:  fmt.Sprintf("%s 1 %d ns/op\n", name, value),
		}
		if err := enc.Encode(ev); err != nil {
			fatalf("%v", err)
		}
	}

	// Per-algorithm latency percentiles, then the overall row set.
	byAlg := map[string][]time.Duration{}
	var all []time.Duration
	hits := 0
	for _, s := range samples {
		byAlg[s.alg] = append(byAlg[s.alg], s.latency)
		all = append(all, s.latency)
		if s.cached {
			hits++
		}
	}
	algNames := make([]string, 0, len(byAlg))
	for a := range byAlg {
		algNames = append(algNames, a)
	}
	sort.Strings(algNames)
	fmt.Fprintf(os.Stderr, "loadgen: %d ok, %d rejected, %d errors in %s\n",
		len(samples), st.rejected.Load(), st.errors.Load(), elapsed.Round(time.Millisecond))
	for _, a := range algNames {
		l := byAlg[a]
		p50, p99 := percentiles(l)
		emit(fmt.Sprintf("BenchmarkServing/%s/%s/p50", *label, a), p50.Nanoseconds())
		emit(fmt.Sprintf("BenchmarkServing/%s/%s/p99", *label, a), p99.Nanoseconds())
		fmt.Fprintf(os.Stderr, "loadgen:   %-14s count=%-6d p50=%-10s p99=%s\n",
			a, len(l), p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	p50, p99 := percentiles(all)
	solvesPerSec := float64(len(all)) / elapsed.Seconds()
	emit("BenchmarkServing/"+*label+"/all/p50", p50.Nanoseconds())
	emit("BenchmarkServing/"+*label+"/all/p99", p99.Nanoseconds())
	emit("BenchmarkServing/"+*label+"/all/ns_per_solve", int64(float64(elapsed.Nanoseconds())/float64(len(all))))
	hitPct := int64(100 * float64(hits) / float64(len(all)))
	emit("BenchmarkServingInfo/"+*label+"/cache_hit_pct", hitPct)
	emit("BenchmarkServingInfo/"+*label+"/solves_per_sec", int64(solvesPerSec))
	emit("BenchmarkServingInfo/"+*label+"/requests", int64(len(all)))
	emit("BenchmarkServingInfo/"+*label+"/rejected", st.rejected.Load())
	fmt.Fprintf(os.Stderr, "loadgen: overall p50=%s p99=%s %.1f solves/sec cacheHit=%d%%\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), solvesPerSec, hitPct)
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s (host %s)\n", *out, host)
	if st.errors.Load() > 0 {
		fatalf("%d requests errored", st.errors.Load())
	}
}

func doRequest(client *http.Client, base string, sp spec, st *stats) {
	body, _ := json.Marshal(serve.SolveRequest{
		Graph:     serve.GraphSpec{Generator: sp.graph, N: sp.n, Seed: sp.seed},
		Algorithm: sp.alg,
		Seed:      sp.seed,
	})
	start := time.Now()
	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		st.errors.Add(1)
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var sr serve.SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			st.errors.Add(1)
			return
		}
		st.mu.Lock()
		st.samples = append(st.samples, sample{alg: sp.alg, latency: time.Since(start), cached: sr.Cached})
		st.mu.Unlock()
	case http.StatusTooManyRequests:
		st.rejected.Add(1)
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			// Honor the server's pacing signal, capped so a smoke run
			// never stalls on a long estimate.
			d := time.Duration(ra) * time.Second
			if d > 500*time.Millisecond {
				d = 500 * time.Millisecond
			}
			time.Sleep(d)
		}
	default:
		st.errors.Add(1)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		fmt.Fprintf(os.Stderr, "loadgen: %s %s: %s\n", sp.alg, resp.Status, strings.TrimSpace(string(msg)))
	}
}

// percentiles returns (p50, p99) of the sample set by sorted rank.
func percentiles(l []time.Duration) (p50, p99 time.Duration) {
	s := append([]time.Duration(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(s)))
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return rank(0.50), rank(0.99)
}

func splitTrim(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
