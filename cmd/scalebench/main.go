// Command scalebench sweeps the solvers across graph sizes up to 10^6
// vertices and streams the measurements — wall time, rounds (the
// work/depth proxy), peak live heap, and color count — as a
// host-fingerprinted test2json stream that cmd/benchdiff can gate,
// exactly like the seed-selection and serving streams.
//
// Usage:
//
//	scalebench -sizes 10000,100000,1000000 -out BENCH_scale.json
//	scalebench -sizes 2000 -algs jp,luby -out /dev/stdout   # CI smoke
//
// Every (graph, n, algorithm) cell emits four pseudo-benchmark rows named
// BenchmarkScale/<graph>/n=<n>/<alg>/{wall,rounds,peakheap,colors}, each
// carrying its value in the "ns/op" slot (benchdiff compares that number
// regardless of the actual unit). Rows are emitted as they complete, so a
// partial sweep still yields a valid stream.
//
// The derandomized deframe solver (alg "deterministic") runs the full
// sparsify + conditional-expectations pipeline; "jp" and "luby" are the
// classical randomized baselines. All solves verify their coloring
// against the original instance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parcolor"
)

// liveHeapBytes samples the runtime's live-heap gauge.
func liveHeapBytes() int64 {
	s := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s[:])
	return int64(s[0].Value.Uint64())
}

// heapWatch polls the live heap in the background and records the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.peak.Store(liveHeapBytes())
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if b := liveHeapBytes(); b > w.peak.Load() {
					w.peak.Store(b)
				}
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the highest live heap observed.
func (w *heapWatch) Peak() int64 {
	close(w.stop)
	<-w.done
	if b := liveHeapBytes(); b > w.peak.Load() {
		w.peak.Store(b)
	}
	return w.peak.Load()
}

// event is the test2json line shape benchdiff parses.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

func hostFingerprint() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s-%s-%s-%d", runtime.GOOS, runtime.GOARCH, host, runtime.NumCPU())
}

// algByName defers to the package-level name registry, so scalebench
// accepts exactly the names the serving API and CLIs accept.
func algByName(name string) (parcolor.Algorithm, error) {
	return parcolor.AlgorithmByName(name)
}

func main() {
	var (
		sizesArg  = flag.String("sizes", "10000,100000,1000000", "comma-separated vertex counts to sweep")
		graphsArg = flag.String("graphs", "gnp-sparse,chunglu", "comma-separated generator names")
		algsArg   = flag.String("algs", "deterministic,jp,luby", "comma-separated algorithms: deterministic|randomized|greedy|jp|luby")
		seed      = flag.Uint64("seed", 1, "generator and solver seed")
		out       = flag.String("out", "BENCH_scale.json", "output stream path")
		shard     = flag.Bool("degreeshard", false, "solve on the degree-sorted relabeling")
		timeout   = flag.Duration("timeout", 0, "per-solve timeout (0 = none)")
	)
	flag.Parse()

	var sizes []int
	for _, s := range strings.Split(*sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "scalebench: bad size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}
	graphs := strings.Split(*graphsArg, ",")
	for i, gname := range graphs {
		graphs[i] = strings.TrimSpace(gname)
		if !slices.Contains(parcolor.GraphNames(), graphs[i]) {
			fmt.Fprintf(os.Stderr, "scalebench: unknown graph %q in -graphs (valid: %s)\n", graphs[i], strings.Join(parcolor.GraphNames(), ", "))
			os.Exit(2)
		}
	}
	algs := strings.Split(*algsArg, ",")
	for _, a := range algs {
		if _, err := algByName(strings.TrimSpace(a)); err != nil {
			fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
			os.Exit(2)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	host := hostFingerprint()
	if err := enc.Encode(map[string]string{"Host": host}); err != nil {
		fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
		os.Exit(1)
	}
	emit := func(name string, value int64) {
		ev := event{
			Action:  "output",
			Package: "parcolor/scalebench",
			Test:    name,
			Output:  fmt.Sprintf("%s 1 %d ns/op\n", name, value),
		}
		if err := enc.Encode(ev); err != nil {
			fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, gname := range graphs {
		for _, n := range sizes {
			g := parcolor.GenerateGraph(gname, n, *seed)
			in := parcolor.TrivialPalettes(g)
			fmt.Fprintf(os.Stderr, "scalebench: %s n=%d m=%d maxDeg=%d\n", gname, g.N(), g.M(), g.MaxDegree())
			for _, aname := range algs {
				aname = strings.TrimSpace(aname)
				alg, _ := algByName(aname)
				solver, err := parcolor.NewSolver(
					parcolor.WithAlgorithm(alg),
					parcolor.WithSeed(*seed),
					parcolor.WithDegreeShard(*shard),
				)
				if err != nil {
					fmt.Fprintf(os.Stderr, "scalebench: %v\n", err)
					os.Exit(1)
				}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if *timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, *timeout)
				}
				runtime.GC()
				watch := watchHeap()
				start := time.Now()
				res, err := solver.Solve(ctx, in)
				wall := time.Since(start)
				peak := watch.Peak()
				cancel()
				if err != nil {
					fmt.Fprintf(os.Stderr, "scalebench: %s/n=%d/%s: %v\n", gname, n, aname, err)
					os.Exit(1)
				}
				base := fmt.Sprintf("BenchmarkScale/%s/n=%d/%s", gname, n, aname)
				emit(base+"/wall", wall.Nanoseconds())
				emit(base+"/rounds", int64(res.Rounds))
				emit(base+"/peakheap", peak)
				emit(base+"/colors", int64(res.DistinctColors))
				if res.Sparsify != nil {
					emit(base+"/copiednodes", res.Sparsify.CopiedNodes)
					emit(base+"/copiedarcs", res.Sparsify.CopiedArcs)
				}
				fmt.Fprintf(os.Stderr, "scalebench:   %-14s wall=%-12s rounds=%-6d peakHeap=%dMB colors=%d\n",
					aname, wall.Round(time.Millisecond), res.Rounds, peak>>20, res.DistinctColors)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "scalebench: wrote %s (host %s)\n", *out, host)
}
