package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// sample is one run's value of one metric, with the run's seed.
type sample struct {
	seed  uint64
	value float64
}

func values(ss []sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.value
	}
	return xs
}

// runs holds recorded metric samples by workload, then metric name.
type runs struct {
	values    map[string]map[string][]sample
	incorrect int
}

// readRuns parses the concatenated standard output of benchmark runs:
// each run's header line names its workload, and the result line after it
// carries the metrics.
func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return runs{}, err
	}
	defer f.Close()
	rs := runs{values: map[string]map[string][]sample{}}
	workload, seed := "", uint64(0)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Bench   *header           `json:"bench"`
			Correct bool              `json:"correct"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // a log line
		}
		switch {
		case line.Bench != nil:
			workload, seed = line.Bench.Workload, line.Bench.Seed
		case line.Metrics != nil:
			if workload == "" {
				return runs{}, fmt.Errorf("%s: result line before any header line", path)
			}
			if !line.Correct {
				rs.incorrect++
			}
			m := rs.values[workload]
			if m == nil {
				m = map[string][]sample{}
				rs.values[workload] = m
			}
			for name, v := range line.Metrics {
				m[name] = append(m[name], sample{seed, v.Value})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return runs{}, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// verdict compares one end-to-end metric between a baseline (a) and a
// change (b). A change is a regression when its median is worse than the
// baseline's by more than the bound. When either side's quartile spread
// is wider than the bound the comparison is unresolved, unless the runs
// do not overlap: every run of b better than every run of a is an
// improvement, and every run of b worse than every run of a, with the
// medians apart by more than the bound, is a regression.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	worse := func(x, y float64) bool { // x worse than y
		if lowerIsBetter {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	change := 0.0
	if ma != 0 {
		change = (mb - ma) / math.Abs(ma)
	}
	if !lowerIsBetter {
		change = -change
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			if !worse(y, x) {
				allBetter = false
			}
			if !worse(x, y) {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return "improved"
	case allWorse && change > bound:
		return "REGRESSED"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case change > bound:
		return "REGRESSED"
	}
	return "ok"
}

// countVerdict compares a count metric seed by seed. The counts here
// (colors, rounds) are exact for a seed, so a change that makes one of
// them worse on any seed run on both sides is a regression, whatever the
// bound; the bound only matters between different sets of seeds. It
// returns "" when no seed was run on both sides.
func countVerdict(a, b []sample, lowerIsBetter bool) string {
	ref := map[uint64]float64{}
	for _, s := range a {
		ref[s.seed] = s.value
	}
	paired, better := 0, 0
	for _, s := range b {
		r, ok := ref[s.seed]
		if !ok {
			continue
		}
		paired++
		d := s.value - r
		if !lowerIsBetter {
			d = -d
		}
		if d > 0 {
			return "REGRESSED"
		}
		if d < 0 {
			better++
		}
	}
	switch {
	case paired == 0:
		return ""
	case better > 0:
		return "improved"
	}
	return "ok"
}

// solveAliases are the end-to-end metrics that, on a workload without a
// server, restate the deterministic solves behind solve_s: -compare shows
// them there without a verdict, so that one measurement is judged once.
var solveAliases = map[string]bool{"latency_p50_ms": true, "latency_p95_ms": true, "throughput_rps": true}

// runCompare prints one row per workload and metric comparing the runs
// recorded in fileA (baseline) and fileB (change), applying each
// end-to-end metric's direction and bound from BENCHMARK.json; counts are
// compared seed by seed (countVerdict). It returns the exit status: 1 if a
// metric regressed or a run was incorrect.
func runCompare(fileA, fileB, benchmarkPath string, out io.Writer) (int, error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return 2, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 2, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := readRuns(fileA)
	if err != nil {
		return 2, err
	}
	b, err := readRuns(fileB)
	if err != nil {
		return 2, err
	}
	pct := func(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }
	rel := func(ma, mb float64) string {
		if ma == 0 {
			return "n/a"
		}
		return pct((mb - ma) / math.Abs(ma))
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tchange\ta spread\tb spread\tbound\tverdict")
	code := 0
	for _, w := range workloadNames {
		va, vb := a.values[w], b.values[w]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, sb := va[m.Name], vb[m.Name]
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			xa, xb := values(sa), values(sb)
			v := ""
			switch {
			case w != "serve-mix" && solveAliases[m.Name]:
				v = "alias of solve_s"
			case m.Unit == "count":
				v = countVerdict(sa, sb, m.Better == "lower")
			}
			if v == "" {
				v = verdict(xa, xb, m.Better == "lower", m.Bound)
			}
			if v == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%s\t%s (n=%d/%d)\n",
				w, m.Name, m.Unit, median(xa), median(xb), rel(median(xa), median(xb)),
				pct(spread(xa)), pct(spread(xb)), pct(m.Bound), v, len(xa), len(xb))
		}
		for _, m := range bf.PerLayer {
			xa, xb := values(va[m.Name]), values(vb[m.Name])
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t-\tlayer (n=%d/%d)\n",
				w, m.Name, m.Unit, median(xa), median(xb), rel(median(xa), median(xb)),
				pct(spread(xa)), pct(spread(xb)), len(xa), len(xb))
		}
	}
	if err := tw.Flush(); err != nil {
		return 2, err
	}
	if n := a.incorrect + b.incorrect; n > 0 {
		fmt.Fprintf(out, "%d recorded runs were not correct\n", n)
		code = 1
	}
	return code, nil
}
