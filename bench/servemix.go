package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parcolor"
	"parcolor/internal/greedy"
	"parcolor/internal/serve"
)

// serveSizing sizes the serve-mix workload; the smoke test shrinks it.
type serveSizing struct {
	requests int   // requests per pass
	sizes    []int // vertex counts in the request mix
}

// serveGens are the generators of the request mix: clique-heavy (dense
// derandomized steps), sparse random, and preferential attachment (hubs).
var serveGens = []string{"mixed", "gnp-sparse", "powerlaw"}

// repeatFrac is the share of requests that repeat a pooled, pre-warmed
// spec and so hit the cache. It is below one half so that the median
// latency falls inside the miss population instead of on the boundary
// between hits and misses, where it would jump between the two.
const repeatFrac = 0.4

// clients is the closed loop's client count; each waits for its reply
// before taking the next request.
const clients = 2

// spec is one request: a generated graph and an algorithm.
type spec struct {
	gen  string
	n    int
	alg  parcolor.Algorithm
	seed uint64
}

// hotSeed is the graph seed of every pooled spec. The pool is the hot set
// of popular graphs, the same in every run, so the colors and rounds
// measured on it are exact from run to run; the run seed picks the fresh
// graphs and the order.
const hotSeed = 1

// serveMix builds the pool (one spec per generator × size × algorithm,
// all on hotSeed) and the request list of one pass: repeatFrac of the
// requests repeat a pooled spec, the rest take a pooled cell with a
// fresh, unique graph seed drawn from the run seed and the pass number.
// Both kinds cycle through the pool, so every seed sends each cell
// equally often. Each pass solves its own fresh graphs, so the latency
// tail of a run is taken over several times as many distinct graphs as
// one pass holds, instead of over the few slowest graphs of one list
// repeated.
func serveMix(seed uint64, pass int, sz serveSizing) (pool, reqs []spec) {
	for _, g := range serveGens {
		for _, n := range sz.sizes {
			for _, a := range algorithms {
				pool = append(pool, spec{gen: g, n: n, alg: a, seed: hotSeed})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e7e+uint64(pass)))
	repeats := int(math.Round(repeatFrac * float64(sz.requests)))
	used := map[uint64]bool{hotSeed: true}
	for i := range sz.requests {
		if i < repeats {
			reqs = append(reqs, pool[i%len(pool)])
			continue
		}
		sp := pool[(i-repeats)%len(pool)]
		for used[sp.seed] {
			sp.seed = rng.Uint64()
		}
		used[sp.seed] = true
		reqs = append(reqs, sp)
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return pool, reqs
}

// reqSample is one request as the client saw it.
type reqSample struct {
	spec    spec
	latency time.Duration
	status  int // 0 for a transport error
	resp    serve.SolveResponse
	err     error
}

// passResult is one pass of the request list against a fresh server.
type passResult struct {
	setup, wall        time.Duration
	peakMB             float64
	warm, samples      []reqSample
	polls, queuedPolls int
	queueMax           int
	deframeStep        time.Duration
	spanTime           map[string]time.Duration // the server's trace spans by engine
}

func postSpec(client *http.Client, url string, sp spec) reqSample {
	body, err := json.Marshal(serve.SolveRequest{
		Graph:         serve.GraphSpec{Generator: sp.gen, N: sp.n, Seed: sp.seed},
		Algorithm:     sp.alg.String(),
		Seed:          sp.seed,
		IncludeColors: true,
	})
	if err != nil {
		return reqSample{spec: sp, err: err}
	}
	t := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reqSample{spec: sp, latency: time.Since(t), err: err}
	}
	defer resp.Body.Close()
	s := reqSample{spec: sp, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		s.err = json.NewDecoder(resp.Body).Decode(&s.resp)
	} else {
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e) // the status already says it failed
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	s.latency = time.Since(t)
	return s
}

// servePass starts a server (MaxInflight 1, one worker per CPU), warms
// its cache with every pooled spec, then drives the request list through
// it from a closed loop of clients that share one index counter, so a
// pass issues the same requests in every run with the same seed. The
// queue depth is polled only with pollQueue, for the traced metrics, so
// that untraced passes run no goroutine besides the clients, the server
// and the heap poller. The server is shut down before return.
func servePass(pool, reqs []spec, poller *heapPoller, pollQueue bool) (passResult, error) {
	var p passResult
	runtime.GC()
	t := time.Now()
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU(), MaxInflight: 1})
	if err != nil {
		return p, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer func() {
		client.CloseIdleConnections()
		_ = hs.Shutdown(context.Background()) // every request has completed
		<-served
	}()
	url := "http://" + ln.Addr().String() + "/v1/solve"
	for _, sp := range pool {
		s := postSpec(client, url, sp)
		if s.err != nil {
			return p, fmt.Errorf("warm-up request %+v: %w", sp, s.err)
		}
		p.warm = append(p.warm, s)
	}
	p.setup = time.Since(t)
	srv.Collector().SnapshotAndReset()

	runtime.GC()
	poller.reset()
	stopQueue := make(chan struct{})
	var queueWG sync.WaitGroup
	if pollQueue {
		queueWG.Add(1)
		go func() {
			defer queueWG.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopQueue:
					return
				case <-tick.C:
					d := srv.QueueDepth()
					p.polls++
					if d > 0 {
						p.queuedPolls++
					}
					p.queueMax = max(p.queueMax, d)
				}
			}
		}()
	}

	p.samples = make([]reqSample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				p.samples[i] = postSpec(client, url, reqs[i])
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.peakMB = poller.reset()
	close(stopQueue)
	queueWG.Wait()
	p.spanTime = map[string]time.Duration{}
	for _, ph := range srv.Collector().Snapshot() {
		p.spanTime[ph.Engine] += ph.Elapsed
		if ph.Engine == "deframe" && ph.Phase != "greedy-residue" {
			p.deframeStep += ph.Elapsed
		}
	}
	return p, nil
}

// runPasses repeats servePass, pass k on request list k, while another
// pass fits before the deadline (at least once).
func runPasses(cfg config, sz serveSizing, deadline time.Time) ([]passResult, error) {
	poller := startHeapPoller()
	defer poller.stop()
	var passes []passResult
	start := time.Now()
	for fits(start, deadline, len(passes)) {
		pool, reqs := serveMix(cfg.seed, len(passes), sz)
		p, err := servePass(pool, reqs, poller, cfg.trace)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	fmt.Fprintf(cfg.log, "bench: %d passes of %d requests\n", len(passes), sz.requests)
	return passes, nil
}

// specKey identifies a spec's expected coloring.
func specKey(sp spec) string { return fmt.Sprintf("%s/%d/%d/%s", sp.gen, sp.n, sp.seed, sp.alg) }

// checkServed re-verifies every served coloring after the timed loop:
// each spec's coloring must verify against a locally regenerated instance
// and report its true color count, and every response for one spec —
// warm-up, hit or miss, in any pass — must be bit-identical. It counts
// one check per request and returns the number of bad colorings.
func checkServed(passes []passResult, rep *report) (bad int) {
	type ref struct {
		hash   uint64
		colors int
		err    error
	}
	refs := map[string]*ref{}
	for _, p := range passes {
		for _, s := range slices.Concat(p.warm, p.samples) {
			if s.err != nil {
				rep.check(fmt.Sprintf("request %s", specKey(s.spec)), s.err)
				continue
			}
			k := specKey(s.spec)
			r, ok := refs[k]
			if !ok {
				r = &ref{hash: hashColors(s.resp.Colors), colors: s.resp.DistinctColors}
				in := parcolor.TrivialPalettes(parcolor.GenerateGraph(s.spec.gen, s.spec.n, s.spec.seed))
				col := &parcolor.Coloring{Colors: s.resp.Colors}
				if err := parcolor.Verify(in, col); err != nil {
					r.err = err
				} else if d := greedy.DistinctColors(col); d != s.resp.DistinctColors {
					r.err = fmt.Errorf("reported %d distinct colors, coloring has %d", s.resp.DistinctColors, d)
				}
				refs[k] = r
			}
			err := r.err
			if err == nil && (hashColors(s.resp.Colors) != r.hash || s.resp.DistinctColors != r.colors) {
				err = fmt.Errorf("coloring differs from an earlier response for the same spec")
			}
			if err != nil {
				bad++
			}
			rep.check(fmt.Sprintf("served coloring %s", k), err)
		}
	}
	return bad
}

func runServeWorkload(cfg config, sz serveSizing, rep *report) error {
	start := time.Now()
	timed := cfg.seconds
	if cfg.trace {
		timed /= 2 // the other half measures the solver layers
	}
	passes, err := runPasses(cfg, sz, start.Add(timed))
	if err != nil {
		return err
	}
	st := summarize(passes, checkServed(passes, rep))

	if cfg.trace {
		emitServeLayerMetrics(rep, st)
		// The layer instances are the hot set's graphs, solved with the
		// seed the server solves them with.
		hot := cfg
		hot.seed = hotSeed
		var ins []*parcolor.Instance
		for _, g := range serveGens {
			for _, n := range sz.sizes {
				ins = append(ins, parcolor.TrivialPalettes(parcolor.GenerateGraph(g, n, hot.seed)))
			}
		}
		refs := warmUp(hot.seed, ins, rep)
		samples, bases := runLayerReps(hot, ins, refs, start.Add(cfg.seconds), rep)
		emitLayerMetrics(rep, samples, runProbes(bases))
		return nil
	}

	var setups, rates, peaks []float64
	for _, p := range passes {
		setups = append(setups, p.setup.Seconds())
		rates = append(rates, float64(len(p.samples))/p.wall.Seconds())
		peaks = append(peaks, p.peakMB)
	}
	rep.emit("setup_s", "s", median(setups))
	// With one solve slot, a miss waits behind the other client's
	// deterministic solve about half the time, so miss latencies are
	// bimodal and their median jumps between the modes from run to run.
	// A deterministic miss is mostly its own solve, so its mean latency
	// is steady; a baseline miss is mostly the wait, so the baselines
	// report their solve time inside the server instead.
	rep.emit("solve_s", "s", mean(st.missByAlg[0])/1e3)
	rep.emit("jp_solve_s", "s", median(st.spanPerMiss[1]))
	rep.emit("luby_solve_s", "s", median(st.spanPerMiss[2]))
	rep.emit("peak_heap_mb", "MB", median(peaks))
	rep.emit("colors", "count", st.detColors)
	rep.emit("rounds", "count", st.detRounds)
	rep.emit("latency_p50_ms", "ms", median(st.all))
	rep.emitPercentile("latency_p95_ms", 95, st.all)
	rep.emit("throughput_rps", "req/s", median(rates))
	return nil
}

// baselineEngine names the trace engine of each baseline's spans.
var baselineEngine = map[parcolor.Algorithm]string{parcolor.JonesPlassmann: "jp", parcolor.LubyColoring: "luby"}

// servedStats are the pooled request measurements of a run's passes, in
// milliseconds.
type servedStats struct {
	all, hits, misses  []float64
	server, transport  []float64   // misses: server elapsed_ms, and the rest of the latency
	missByAlg          [][]float64 // by algorithm
	spanPerMiss        [][]float64 // by algorithm, per pass: seconds of the engine's spans per miss
	detColors          float64     // mean over the hot set's deterministic responses
	detRounds          float64
	okCount, hitCount  int
	rejected, errs     int
	bad                int
	polls, queuedPolls int
	queueMax           int
	deframeStep        []float64 // seconds, one per pass
}

func summarize(passes []passResult, bad int) servedStats {
	st := servedStats{missByAlg: make([][]float64, len(algorithms)), spanPerMiss: make([][]float64, len(algorithms)), bad: bad}
	var detN int
	if len(passes) > 0 {
		// The warm-up requests are the pool, the hot set.
		for _, s := range passes[0].warm {
			if s.spec.alg == parcolor.Deterministic {
				st.detColors += float64(s.resp.DistinctColors)
				st.detRounds += float64(s.resp.Rounds)
				detN++
			}
		}
	}
	for _, p := range passes {
		misses := make([]int, len(algorithms))
		st.polls += p.polls
		st.queuedPolls += p.queuedPolls
		st.queueMax = max(st.queueMax, p.queueMax)
		st.deframeStep = append(st.deframeStep, p.deframeStep.Seconds())
		for _, s := range p.samples {
			switch {
			case s.status == http.StatusTooManyRequests:
				st.rejected++
				continue
			case s.err != nil:
				st.errs++
				continue
			}
			ms := millis(s.latency)
			st.okCount++
			st.all = append(st.all, ms)
			if s.resp.Cached {
				st.hitCount++
				st.hits = append(st.hits, ms)
				continue
			}
			st.misses = append(st.misses, ms)
			st.server = append(st.server, s.resp.ElapsedMillis)
			st.transport = append(st.transport, ms-s.resp.ElapsedMillis)
			a := slices.Index(algorithms, s.spec.alg)
			st.missByAlg[a] = append(st.missByAlg[a], ms)
			misses[a]++
		}
		for a, alg := range algorithms {
			if engine := baselineEngine[alg]; engine != "" && misses[a] > 0 {
				st.spanPerMiss[a] = append(st.spanPerMiss[a], p.spanTime[engine].Seconds()/float64(misses[a]))
			}
		}
	}
	if detN > 0 {
		st.detColors /= float64(detN)
		st.detRounds /= float64(detN)
	}
	return st
}

// emitServeLayerMetrics reports the serving-layer metrics; on a workload
// without a server (a zero servedStats) every one of them reads 0.
func emitServeLayerMetrics(rep *report, st servedStats) {
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	byAlg := func(a int) []float64 {
		if a < len(st.missByAlg) {
			return st.missByAlg[a]
		}
		return nil
	}
	rep.emit("serve.hit_frac", "ratio", frac(st.hitCount, st.okCount))
	rep.emit("serve.hit_p50_ms", "ms", median(st.hits))
	rep.emit("serve.miss_p50_ms", "ms", median(st.misses))
	rep.emitTail("serve.miss_tail_ms", st.misses)
	rep.emitTail("serve.server_tail_ms", st.server)
	rep.emitTail("serve.transport_tail_ms", st.transport)
	rep.emitTail("serve.det_tail_ms", byAlg(0))
	rep.emitTail("serve.jp_tail_ms", byAlg(1))
	rep.emitTail("serve.luby_tail_ms", byAlg(2))
	rep.emit("serve.queue_depth_max", "count", float64(st.queueMax))
	rep.emit("serve.queued_frac", "ratio", frac(st.queuedPolls, st.polls))
	rep.emit("serve.deframe_step_s", "s", median(st.deframeStep))
	rep.emit("serve.rejected", "count", float64(st.rejected))
	rep.emit("serve.errors", "count", float64(st.errs))
	rep.emit("serve.bad_colorings", "count", float64(st.bad))
}
