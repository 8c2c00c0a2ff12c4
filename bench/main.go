// Command bench is the repository benchmark. One run drives one workload
// of the parcolor solvers for a fixed time, checks every coloring it
// produces, and prints one JSON result line: the end-to-end metrics, or
// with -trace 1 the per-layer metrics, which it measures from outside
// the solver by timing calls into each layer's public functions and by
// recording the solver's trace spans. README.md describes the workloads
// and defines every metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload gnp-1m --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare before.txt after.txt
//
// The exit status is 1 when a coloring fails a check (after the result
// line is printed) and 2 on a usage or set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"parcolor/internal/kernel"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// log receives the human-readable lines (sample counts, tails, host).
	log io.Writer
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's checks and metrics.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	log               io.Writer
}

func newReport(log io.Writer) *report {
	return &report{metrics: map[string]metric{}, log: log}
}

// check counts one checked operation, failing it when err is non-nil.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "bench: FAILED %s: %v\n", what, err)
	}
}

// emit records a metric. A malformed name or a non-finite value is a bug
// in the benchmark, not a measurement, so it panics.
func (r *report) emit(name, unit string, v float64) {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is %v", name, v))
	}
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("bench: metric %s emitted twice", name))
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// emitPercentile records the p-th percentile of a latency sample and logs
// how many samples lie beyond it.
func (r *report) emitPercentile(name string, p float64, msSamples []float64) {
	v, beyond := percentile(msSamples, p)
	fmt.Fprintf(r.log, "bench: %s = p%g of %d samples (%d beyond)\n", name, p, len(msSamples), beyond)
	r.emit(name, "ms", v)
}

// emitTail records a tail latency and logs which percentile it is.
func (r *report) emitTail(name string, msSamples []float64) {
	v, pct, beyond := tail(msSamples)
	fmt.Fprintf(r.log, "bench: %s = p%.2f of %d samples (%d beyond)\n", name, pct, len(msSamples), beyond)
	r.emit(name, "ms", v)
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// hostInfo is what a recorded number depends on besides the code.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Dispatch   string `json:"dispatch"`
}

func host() hostInfo {
	dispatch := "generic"
	if kernel.UsingAVX2() {
		dispatch = "avx2"
	}
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Dispatch:   dispatch,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// header is the line printed before the result, naming the run; the
// -compare reader groups results by it.
type header struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Trace    int      `json:"trace"`
	Seconds  float64  `json:"seconds"`
	Host     hostInfo `json:"host"`
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"gnp-1m", "chunglu-200k", "serve-mix"}

// run executes one workload and returns its report.
func run(cfg config, sizes sizing) (*report, error) {
	rep := newReport(cfg.log)
	var err error
	switch cfg.workload {
	case "gnp-1m":
		err = runSolverWorkload(cfg, solverWorkload{gen: "gnp-sparse", n: sizes.gnpN}, rep)
	case "chunglu-200k":
		err = runSolverWorkload(cfg, solverWorkload{gen: "chunglu", n: sizes.chungluN}, rep)
	case "serve-mix":
		err = runServeWorkload(cfg, sizes.serve, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// sizing holds the instance sizes; the smoke test shrinks them.
type sizing struct {
	gnpN, chungluN int
	serve          serveSizing
}

var fullSize = sizing{
	gnpN:     1_000_000,
	chungluN: 200_000,
	serve:    serveSizing{requests: 540, sizes: []int{100, 200}},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "how long the timed phase measures")
		traceArg = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two files of recorded run output: -compare a.txt b.txt")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			os.Exit(2)
		}
		code, err := runCompare(flag.Arg(0), flag.Arg(1), "BENCHMARK.json", os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	if !slices.Contains(workloadNames, *workload) || *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceArg == 1,
		log:      os.Stderr,
	}
	hdr, _ := json.Marshal(map[string]header{"bench": {
		Workload: cfg.workload, Seed: cfg.seed, Trace: *traceArg, Seconds: *seconds, Host: host(),
	}})
	fmt.Println(string(hdr))
	start := time.Now()
	rep, err := run(cfg, fullSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "bench: run took %.1fs\n", time.Since(start).Seconds())
	res := rep.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
