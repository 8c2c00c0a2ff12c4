package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

const benchmarkJSON = "../BENCHMARK.json"

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks every workload so that a run takes about a second.
var tiny = sizing{gnpN: 2000, chungluN: 2000, serve: serveSizing{requests: 40, sizes: []int{100}}}

// TestWorkloadsEmitEveryBenchmarkMetric runs every workload at tiny size,
// untraced and traced, and checks that each run is correct and emits
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitEveryBenchmarkMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				cfg := config{workload: w, seed: 3, seconds: time.Millisecond, trace: traced, log: io.Discard}
				rep, err := run(cfg, tiny)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if !traced {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

func TestBenchmarkFileNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	seen := map[string]bool{}
	setup := -1.0
	for _, m := range bf.EndToEnd {
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = m.Bound
		}
	}
	// setup_s is the median of a few short set-ups, the noisiest metric,
	// so no other metric has a wider bound.
	for _, m := range bf.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v wider than setup_s's %v (or no setup_s in s, lower)", m.Name, m.Bound, setup)
		}
	}
	names := []string{}
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range bf.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if err := checkMetricName(n); err != nil {
			t.Error(err)
		}
		if seen[n] {
			t.Errorf("metric %s listed twice", n)
		}
		seen[n] = true
	}
}

func TestServeMixIsFixedBySeed(t *testing.T) {
	sz := fullSize.serve
	pool, reqs := serveMix(7, 0, sz)
	_, again := serveMix(7, 0, sz)
	if len(pool) != len(serveGens)*len(sz.sizes)*len(algorithms) || len(reqs) != sz.requests {
		t.Fatalf("pool %d, requests %d", len(pool), len(reqs))
	}
	type cell struct {
		gen string
		n   int
		alg string
	}
	repeats, fresh, seeds := map[cell]int{}, map[cell]int{}, map[uint64]bool{}
	for i, r := range reqs {
		if r != again[i] {
			t.Fatalf("request %d differs between two lists from one seed: %+v vs %+v", i, r, again[i])
		}
		c := cell{r.gen, r.n, r.alg.String()}
		if r.seed == hotSeed {
			repeats[c]++
			continue
		}
		if seeds[r.seed] {
			t.Fatalf("fresh seed %d used twice", r.seed)
		}
		seeds[r.seed] = true
		fresh[c]++
	}
	// 540 requests: 216 repeats and 324 fresh, spread evenly over 18 cells.
	for _, sp := range pool {
		c := cell{sp.gen, sp.n, sp.alg.String()}
		if repeats[c] != 12 || fresh[c] != 18 {
			t.Errorf("cell %v: %d repeats and %d fresh, want 12 and 18", c, repeats[c], fresh[c])
		}
	}
	otherPool, other := serveMix(8, 0, sz)
	if other[0] == reqs[0] && other[1] == reqs[1] {
		t.Errorf("seeds 7 and 8 give the same requests")
	}
	if !slices.Equal(pool, otherPool) {
		t.Errorf("the pool, the hot set, changes with the seed")
	}
	// A later pass solves other fresh graphs on the same hot set.
	passPool, next := serveMix(7, 1, sz)
	if !slices.Equal(pool, passPool) {
		t.Errorf("the pool, the hot set, changes with the pass")
	}
	for _, r := range next {
		if r.seed != hotSeed && seeds[r.seed] {
			t.Errorf("pass 1 repeats pass 0's fresh graph %+v", r)
		}
	}
}

func TestCompareFlagsRegressionsAndNoise(t *testing.T) {
	dir := t.TempDir()
	// write records one gnp-1m run per seed 0, 1, ... and returns the file.
	write := func(name string, solve, colors []float64) string {
		var b strings.Builder
		for i, s := range solve {
			hdr, _ := json.Marshal(map[string]header{"bench": {Workload: "gnp-1m", Seed: uint64(i)}})
			res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"solve_s":        {Value: s, Unit: "s"},
				"latency_p50_ms": {Value: 1e3 * s, Unit: "ms"},
				"colors":         {Value: colors[i], Unit: "count"},
			}})
			fmt.Fprintf(&b, "%s\nbench: a log line\n%s\n", hdr, res)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []float64{2.00, 2.01, 2.02, 1.99, 2.00, 2.01}
	colors := []float64{8, 7, 8, 8, 7, 8}
	base := write("a.txt", steady, colors)
	for _, tc := range []struct {
		name          string
		solve, colors []float64
		// want is the verdict expected in the row of each named metric.
		want map[string]string
		code int
	}{
		{"same", steady, colors, map[string]string{"solve_s": "ok", "colors": "ok"}, 0},
		{"slower", []float64{2.60, 2.61, 2.62, 2.59, 2.60, 2.61}, colors,
			map[string]string{"solve_s": "REGRESSED"}, 1},
		{"noisy", []float64{1.0, 3.0, 2.0, 4.0, 1.5, 2.5}, colors,
			map[string]string{"solve_s": "unresolved"}, 0},
		// Wider spread than the bound, but no run overlaps the baseline.
		{"noisy and slower", []float64{3.0, 4.5, 3.5, 5.0, 3.2, 4.0}, colors,
			map[string]string{"solve_s": "REGRESSED"}, 1},
		{"faster", []float64{1.50, 1.51, 1.52, 1.49, 1.50, 1.51}, colors,
			map[string]string{"solve_s": "improved", "latency_p50_ms": "alias of solve_s"}, 0},
		// One seed gains a color: the medians agree, the seeds do not.
		{"one more color", steady, []float64{8, 7, 8, 9, 7, 8},
			map[string]string{"solve_s": "ok", "colors": "REGRESSED"}, 1},
		{"one fewer color", steady, []float64{8, 7, 7, 8, 7, 8},
			map[string]string{"colors": "improved"}, 0},
	} {
		var out strings.Builder
		code, err := runCompare(base, write(tc.name+".txt", tc.solve, tc.colors), benchmarkJSON, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
		for metric, want := range tc.want {
			var row string
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 1 && f[1] == metric {
					row = line
				}
			}
			if !strings.Contains(row, want) {
				t.Errorf("%s: %s row %q, want %s", tc.name, metric, row, want)
			}
		}
	}
}
