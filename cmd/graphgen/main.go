// Command graphgen emits workload graphs as edge lists (one "u v" pair per
// line, preceded by a "n m" header), for feeding external tools or
// regression fixtures.
//
// Usage:
//
//	graphgen -graph powerlaw -n 1000 -seed 3 > powerlaw.txt
//	graphgen -graph chunglu -n 1000000 -stream -o big.txt
//	graphgen -list
//
// -stream writes edges as the generator produces them instead of building
// the graph in memory first, so million-edge instances cost O(1) beyond
// the generator's own state. Streaming is supported for the generators
// with an edge-emitter path (gnp-sparse, gnp-dense, chunglu) and requires
// -o: the "n m" header is back-patched with the final edge count once the
// stream ends. Streamed chunglu output may contain duplicate pairs — the
// reader's builder semantics deduplicate them, exactly as the in-memory
// path does.
//
// An unknown -graph, a negative -n, or -stream with a generator that has
// no streaming path exits with status 2 before any output file is
// created.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"parcolor"
	"parcolor/internal/graph"
)

// headerWidth pads the streamed header line so it can be rewritten in
// place once the edge count is known.
const headerWidth = 48

// edgeStream returns the named generator's edge emitter; the supported
// names mirror the parameter choices of graph.Named.
func edgeStream(name string, n int, seed uint64) (func(emit func(u, v int32)), error) {
	switch name {
	case "gnp-sparse":
		p := 6 / float64(n)
		if n < 7 {
			p = 6.0 / 7
		}
		return func(emit func(u, v int32)) { graph.GnpEdges(n, p, seed, emit) }, nil
	case "gnp-dense":
		return func(emit func(u, v int32)) { graph.GnpEdges(n, 0.3, seed, emit) }, nil
	case "chunglu":
		return func(emit func(u, v int32)) { graph.ChungLuEdges(n, 2.5, 8, seed, emit) }, nil
	}
	return nil, fmt.Errorf("generator %q has no streaming path (supported: gnp-sparse, gnp-dense, chunglu)", name)
}

func stream(edges func(emit func(u, v int32)), n int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	header := func(m int64) string {
		return fmt.Sprintf("%-*s\n", headerWidth, fmt.Sprintf("%d %d", n, m))
	}
	if _, err := w.WriteString(header(0)); err != nil {
		return err
	}
	var m int64
	var werr error
	edges(func(u, v int32) {
		if werr != nil {
			return
		}
		m++
		_, werr = fmt.Fprintf(w, "%d %d\n", u, v)
	})
	if werr != nil {
		return werr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Back-patch the padded header with the real edge count.
	if _, err := f.WriteAt([]byte(header(m)), 0); err != nil {
		return err
	}
	return f.Close()
}

// checkFlags rejects, before anything is generated or any output file is
// created, a generator name the command does not know and a negative node
// count, naming the valid values.
func checkFlags(name string, n int) error {
	if !slices.Contains(parcolor.GraphNames(), name) {
		return fmt.Errorf("unknown -graph %q (valid: %s)", name, strings.Join(parcolor.GraphNames(), ", "))
	}
	if n < 0 {
		return fmt.Errorf("-n must be at least 0, got %d", n)
	}
	return nil
}

func main() {
	var (
		name   = flag.String("graph", "gnp-sparse", "generator name")
		n      = flag.Int("n", 1000, "approximate node count")
		seed   = flag.Uint64("seed", 1, "generator seed")
		list   = flag.Bool("list", false, "list generator names and exit")
		stat   = flag.Bool("stats", false, "print degree statistics instead of edges")
		doStr  = flag.Bool("stream", false, "stream edges from the generator without building the graph (requires -o)")
		outArg = flag.String("o", "", "output file (default stdout; required with -stream)")
	)
	flag.Parse()

	if *list {
		for _, g := range parcolor.GraphNames() {
			fmt.Println(g)
		}
		return
	}

	if err := checkFlags(*name, *n); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	if *doStr {
		if *stat {
			fmt.Fprintln(os.Stderr, "error: -stream and -stats are mutually exclusive")
			os.Exit(2)
		}
		if *outArg == "" {
			fmt.Fprintln(os.Stderr, "error: -stream requires -o (the header is back-patched in place)")
			os.Exit(2)
		}
		edges, err := edgeStream(*name, *n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		if err := stream(edges, *n, *outArg); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	out := os.Stdout
	if *outArg != "" {
		f, err := os.Create(*outArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	g := parcolor.GenerateGraph(*name, *n, *seed)
	w := bufio.NewWriter(out)
	defer w.Flush()

	if *stat {
		hist := map[int]int{}
		maxD := 0
		for v := int32(0); v < int32(g.N()); v++ {
			d := g.Degree(v)
			hist[d]++
			if d > maxD {
				maxD = d
			}
		}
		fmt.Fprintf(w, "graph=%s n=%d m=%d maxDeg=%d\n", *name, g.N(), g.M(), maxD)
		for d := 0; d <= maxD; d++ {
			if hist[d] > 0 {
				fmt.Fprintf(w, "deg %d: %d nodes\n", d, hist[d])
			}
		}
		return
	}
	fmt.Fprintf(w, "%d %d\n", g.N(), g.M())
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fmt.Fprintf(w, "%d %d\n", u, v)
			}
		}
	}
}
