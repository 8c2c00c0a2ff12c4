// Command benchdiff compares two test2json benchmark streams and fails
// loudly when the current numbers regress beyond a tolerance against
// the recorded baseline. It gates every stream the repo records:
// BENCH_seed_selection.json (`make bench`, filter "table/"),
// BENCH_scale.json (`make bench-scale`, filter "Scale/") and the
// serving stream BENCH_serving.json that cmd/loadgen writes
// (`make bench-serving`, filter "Serving/").
//
// Usage (the Makefile's *-diff targets regenerate each stream into the
// gitignored .bench_scratch/ and diff it against the committed one):
//
//	go run ./cmd/benchdiff -old BENCH_seed_selection.json \
//	    -new .bench_scratch/BENCH_seed_selection.json -tol 0.10 -filter table/
//	go run ./cmd/benchdiff -old BENCH_serving.json \
//	    -new .bench_scratch/BENCH_serving.json -tol 0.10 -filter Serving/
//
// Streams need not come from `go test -bench`: loadgen synthesizes rows
// in the same shape (`<name> 1 <value> ns/op`), one per serving metric,
// all lower-is-better so the one-directional gate stays sound. Its
// context rows (cache hit rate, request counts) live under
// BenchmarkServingInfo/…, which the "Serving/" filter deliberately does
// not match — they inform, never gate.
//
// A stream may hold several runs of each row (`make bench` records the
// seed-selection suite with -count 5); each row is compared by its median
// over all runs in the stream, so one noisy run neither fails the gate
// nor hides a regression in the others.
//
// Rows recorded with -benchmem are also compared by their median
// allocs/op, with no tolerance: a gated row whose allocations rise
// regresses even when its ns/op holds. Allocation counts do not drift
// between runs of the same code (every table/ row of the committed
// seed-selection stream reads the same allocs/op in all five runs), so a
// rise is a change, not noise. Rows without allocs/op (the scale and
// serving streams) are compared by ns/op alone.
//
// Rows are keyed by (package, benchmark) and matched by exact name; only
// rows whose name contains the filter substring (default "table/", the
// mask-based engine path) gate the exit status — the naive-oracle rows
// are printed for context but cannot fail the run, since the oracle is
// the unoptimized reference. Exit status 1 on any gated regression
// > tol, so `make bench-diff` wires straight into scripts and CI.
// Malformed or truncated stream lines exit 2 (naming the offending line)
// instead of being skipped — a corrupt baseline must not pass vacuously.
//
// Baselines are keyed by host fingerprint: `make bench` prepends a
// {"Host": "..."} line to the stream, and benchdiff compares the two
// streams' hosts before gating. When the hosts differ — or either stream
// predates the host field — absolute ns/op comparisons across different
// hardware are indicative only, so regressions are reported as warnings
// and the exit status stays 0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type event struct {
	Action  string
	Package string
	Test    string
	Output  string
	// Host is the recording machine's fingerprint, carried by the
	// synthetic first line `make bench` writes. Absent on streams recorded
	// before baselines were host-keyed.
	Host string
}

var (
	nsOp     = regexp.MustCompile(`([0-9][0-9.]*) ns/op`)
	allocsOp = regexp.MustCompile(`([0-9][0-9.]*) allocs/op`)
	// runName is a result line's leading benchmark name, without the
	// -GOMAXPROCS suffix go test appends.
	runName = regexp.MustCompile(`^(Benchmark\S*?)(-[0-9]+)?\s`)
)

// row is one benchmark's medians over its runs in a stream. allocs is -1
// when the row carries no allocs/op.
type row struct {
	ns, allocs float64
}

// parse reads a test2json stream and returns each row's median ns/op and
// allocs/op over all its runs, keyed by "package benchmark", plus the
// stream's host fingerprint ("" when the stream predates host keying).
// Output fragments of one benchmark arrive as multiple events (the name
// line and the measurement line are separate), so fragments are
// concatenated per key before matching. With -count > 1, go test
// attributes only the first run's output to the benchmark; later runs
// arrive as package output whose lines start with the benchmark's name,
// so a fragment without a benchmark belongs to the one its line names, or
// else to the last one named in its package.
func parse(path string) (map[string]row, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	host := ""
	frags := map[string]*strings.Builder{}
	current := map[string]string{} // package → benchmark its output belongs to
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(string(sc.Bytes()))
		if raw == "" {
			continue
		}
		var e event
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			// A malformed line means the stream is truncated or corrupt;
			// skipping it would silently shrink the gate's coverage.
			return nil, "", fmt.Errorf("%s:%d: malformed test2json line: %v", path, line, err)
		}
		if e.Host != "" {
			host = e.Host
			continue
		}
		if e.Action != "output" {
			continue
		}
		if strings.HasPrefix(e.Test, "Benchmark") {
			current[e.Package] = e.Test
		} else if e.Test != "" {
			continue
		} else if m := runName.FindStringSubmatch(e.Output); m != nil {
			current[e.Package] = m[1]
		}
		name := current[e.Package]
		if name == "" {
			continue
		}
		key := e.Package + " " + name
		b, ok := frags[key]
		if !ok {
			b = &strings.Builder{}
			frags[key] = b
		}
		b.WriteString(e.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	out := map[string]row{}
	for key, b := range frags {
		ns := values(nsOp, b.String())
		if len(ns) == 0 {
			continue
		}
		r := row{ns: median(ns), allocs: -1}
		if allocs := values(allocsOp, b.String()); len(allocs) > 0 {
			r.allocs = median(allocs)
		}
		out[key] = r
	}
	return out, host, nil
}

// values returns the number in front of every match of unit in text.
func values(unit *regexp.Regexp, text string) []float64 {
	var vs []float64
	for _, m := range unit.FindAllStringSubmatch(text, -1) {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil {
			vs = append(vs, v)
		}
	}
	return vs
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// regressions names what makes row n worse than its baseline o: a median
// ns/op more than tol above o's, or any rise in median allocs/op where
// both rows carry one.
func regressions(o, n row, tol float64) []string {
	var out []string
	if d := (n.ns - o.ns) / o.ns; d > tol {
		out = append(out, fmt.Sprintf("ns/op %+.1f%%", d*100))
	}
	if o.allocs >= 0 && n.allocs > o.allocs {
		out = append(out, fmt.Sprintf("allocs/op %.0f -> %.0f", o.allocs, n.allocs))
	}
	return out
}

func main() {
	oldPath := flag.String("old", "BENCH_seed_selection.json", "baseline test2json stream (the committed recording)")
	newPath := flag.String("new", ".bench_scratch/BENCH_seed_selection.json", "current test2json stream (make bench-diff writes it)")
	tol := flag.Float64("tol", 0.10, "allowed fractional regression on gated rows")
	filter := flag.String("filter", "table/", "substring selecting the rows that gate the exit status")
	flag.Parse()

	oldRows, oldHost, err := parse(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRows, newHost, err := parse(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	// Baselines gate hard only on the hardware that recorded them.
	sameHost := oldHost != "" && oldHost == newHost
	if !sameHost {
		describe := func(h string) string {
			if h == "" {
				return "(unrecorded)"
			}
			return h
		}
		fmt.Fprintf(os.Stderr,
			"benchdiff: WARNING — host mismatch: baseline %s vs current %s; "+
				"cross-hardware ns/op and allocs/op are indicative only, regressions below are warnings, exit stays 0\n",
			describe(oldHost), describe(newHost))
		if oldHost == "" {
			fmt.Fprintf(os.Stderr,
				"benchdiff: the baseline predates host keying and can never gate hard; "+
					"record a host-stamped baseline on this machine (`make bench` then snapshot the stream, "+
					"e.g. `make bench-diff BENCH_BASELINE=<snapshot>`) to restore the hard gate\n")
		}
	}

	var keys []string
	for k := range newRows {
		if _, ok := oldRows[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no overlapping benchmarks between the two streams")
		os.Exit(2)
	}
	sort.Strings(keys)

	failed := false
	gatedRows := 0
	allocs := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	fmt.Printf("%-70s %14s %14s %8s %10s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	for _, k := range keys {
		o, n := oldRows[k], newRows[k]
		status := ""
		if strings.Contains(k, *filter) {
			gatedRows++
			if why := regressions(o, n, *tol); len(why) > 0 {
				if sameHost {
					status = "  REGRESSION: "
					failed = true
				} else {
					status = "  regression? (host mismatch): "
				}
				status += strings.Join(why, ", ")
			}
		}
		fmt.Printf("%-70s %14.0f %14.0f %+7.1f%% %10s %10s%s\n",
			k, o.ns, n.ns, (n.ns-o.ns)/o.ns*100, allocs(o.allocs), allocs(n.allocs), status)
	}
	if gatedRows == 0 {
		// A filter that matches nothing (renamed benchmarks, typo) must not
		// pass vacuously: the gate would silently check nothing.
		fmt.Fprintf(os.Stderr, "benchdiff: no overlapping benchmark matches filter %q — gate checked nothing\n", *filter)
		os.Exit(2)
	}
	// The scale stream's headline number: the million-node deterministic
	// wall time, surfaced in the summary so the one delta the roadmap
	// tracks never has to be fished out of the table.
	headline := ""
	for _, k := range keys {
		if !strings.Contains(k, "/n=1000000/deterministic/wall") {
			continue
		}
		o, n := oldRows[k].ns, newRows[k].ns
		graph := k
		if i := strings.Index(k, "Scale/"); i >= 0 {
			graph = k[i+len("Scale/"):]
		}
		if i := strings.Index(graph, "/"); i >= 0 {
			graph = graph[:i]
		}
		if headline == "" {
			headline = "; n=10^6 deterministic wall: "
		} else {
			headline += ", "
		}
		headline += fmt.Sprintf("%s %+.1f%%", graph, (n-o)/o*100)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL — %q rows regressed more than %.0f%% in ns/op, or in allocs/op, vs %s%s\n",
			*filter, *tol*100, *oldPath, headline)
		os.Exit(1)
	}
	if sameHost {
		fmt.Printf("benchdiff: ok — no %q row regressed more than %.0f%% in ns/op, or in allocs/op (host %s)%s\n", *filter, *tol*100, oldHost, headline)
	} else {
		fmt.Printf("benchdiff: ok (host mismatch — comparison indicative only)%s\n", headline)
	}
}
