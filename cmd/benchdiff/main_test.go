package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeStream(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const goodStream = `{"Host":"hostA go1 8cpu"}
{"Action":"output","Package":"parcolor/internal/condexp","Test":"BenchmarkSelect/table/n=256","Output":"BenchmarkSelect/table/n=256\n"}
{"Action":"output","Package":"parcolor/internal/condexp","Test":"BenchmarkSelect/table/n=256","Output":"  100\t  12345 ns/op\n"}
`

func TestParseGoodStream(t *testing.T) {
	p := writeStream(t, "good.json", goodStream)
	ns, host, err := parse(p)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if host != "hostA go1 8cpu" {
		t.Fatalf("host = %q", host)
	}
	key := "parcolor/internal/condexp BenchmarkSelect/table/n=256"
	if ns[key] != (row{ns: 12345, allocs: -1}) {
		t.Fatalf("ns[%q] = %+v", key, ns[key])
	}
}

func TestParseToleratesBlankLines(t *testing.T) {
	p := writeStream(t, "blank.json", "\n"+goodStream+"   \n")
	if _, _, err := parse(p); err != nil {
		t.Fatalf("blank lines must not fail the parse: %v", err)
	}
}

func TestParseRejectsMalformedLine(t *testing.T) {
	p := writeStream(t, "bad.json", goodStream+"{not json at all\n")
	_, _, err := parse(p)
	if err == nil {
		t.Fatal("malformed line silently skipped — parse must error")
	}
	if !strings.Contains(err.Error(), ":4:") {
		t.Fatalf("error should name line 4, got %v", err)
	}
}

// servingStream is the fixture shape cmd/loadgen writes: synthesized
// test2json rows (iteration count always 1), gated latency rows under
// BenchmarkServing/ and context rows under BenchmarkServingInfo/.
const servingStream = `{"Host":"linux-amd64-hostA-8"}
{"Action":"output","Package":"parcolor/loadgen","Test":"BenchmarkServing/mix/all/p50","Output":"BenchmarkServing/mix/all/p50 1 41000000 ns/op\n"}
{"Action":"output","Package":"parcolor/loadgen","Test":"BenchmarkServing/mix/all/p99","Output":"BenchmarkServing/mix/all/p99 1 390000000 ns/op\n"}
{"Action":"output","Package":"parcolor/loadgen","Test":"BenchmarkServing/mix/deterministic/p50","Output":"BenchmarkServing/mix/deterministic/p50 1 52000000 ns/op\n"}
{"Action":"output","Package":"parcolor/loadgen","Test":"BenchmarkServing/mix/all/ns_per_solve","Output":"BenchmarkServing/mix/all/ns_per_solve 1 83000000 ns/op\n"}
{"Action":"output","Package":"parcolor/loadgen","Test":"BenchmarkServingInfo/mix/cache_hit_pct","Output":"BenchmarkServingInfo/mix/cache_hit_pct 1 47 ns/op\n"}
{"Action":"output","Package":"parcolor/loadgen","Test":"BenchmarkServingInfo/mix/requests","Output":"BenchmarkServingInfo/mix/requests 1 212 ns/op\n"}
`

func TestParseServingStream(t *testing.T) {
	p := writeStream(t, "serving.json", servingStream)
	ns, host, err := parse(p)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if host != "linux-amd64-hostA-8" {
		t.Fatalf("host = %q", host)
	}
	wants := map[string]float64{
		"parcolor/loadgen BenchmarkServing/mix/all/p50":           41000000,
		"parcolor/loadgen BenchmarkServing/mix/all/p99":           390000000,
		"parcolor/loadgen BenchmarkServing/mix/deterministic/p50": 52000000,
		"parcolor/loadgen BenchmarkServing/mix/all/ns_per_solve":  83000000,
		"parcolor/loadgen BenchmarkServingInfo/mix/cache_hit_pct": 47,
		"parcolor/loadgen BenchmarkServingInfo/mix/requests":      212,
	}
	for k, v := range wants {
		if ns[k] != (row{ns: v, allocs: -1}) {
			t.Errorf("ns[%q] = %+v, want %v ns/op and no allocs/op", k, ns[k], v)
		}
	}
	// The gate contract the serving Makefile targets rely on: the
	// "Serving/" filter selects every latency/throughput row and none of
	// the informational ones (higher-is-better cache hit rate must never
	// feed a one-directional lower-is-better gate).
	gated, info := 0, 0
	for k := range ns {
		if strings.Contains(k, "Serving/") {
			gated++
			if strings.Contains(k, "ServingInfo/") {
				t.Errorf("info row %q matches the gating filter", k)
			}
		} else if strings.Contains(k, "ServingInfo/") {
			info++
		}
	}
	if gated != 4 || info != 2 {
		t.Errorf("filter split gated=%d info=%d, want 4/2", gated, info)
	}
}

func TestParseRejectsTruncatedLine(t *testing.T) {
	// A stream cut off mid-record (crashed bench run) ends in a JSON
	// fragment; the gate must refuse it rather than compare less.
	truncated := strings.TrimSuffix(goodStream, "\n")
	truncated = truncated[:len(truncated)-15]
	p := writeStream(t, "trunc.json", truncated)
	if _, _, err := parse(p); err == nil {
		t.Fatal("truncated final line silently skipped — parse must error")
	}
}

// fiveRuns renders the lowdeg table rows recorded with -count 5 as go
// test -json streams them: only the first run's output carries the
// benchmark's name in the Test field, and later runs arrive as package
// output, either whole or with the name and the measurement in separate
// fragments. Every run of the flat row reads flatAllocs allocs/op.
func fiveRuns(bitwise, flat []int, flatAllocs int) string {
	const pkg = `"Package":"parcolor/internal/lowdeg"`
	var b strings.Builder
	b.WriteString(`{"Host":"hostA"}` + "\n")
	row := func(name string, ns []int, allocs int) {
		out := func(test, text string) {
			if test != "" {
				test = `"Test":"` + test + `",`
			}
			fmt.Fprintf(&b, `{"Action":"output",%s,%s"Output":%q}`+"\n", pkg, test, text)
		}
		out(name, "=== RUN   "+name+"\n")
		out(name, name+"-2  \t")
		out(name, fmt.Sprintf("     330\t  %d ns/op\t  110798 B/op\t     %d allocs/op\n", ns[0], allocs))
		for k, v := range ns[1:] {
			line := fmt.Sprintf("     330\t  %d ns/op\t  110798 B/op\t     %d allocs/op\n", v, allocs)
			if k%2 == 0 {
				out("", name+"-2  \t"+line)
			} else {
				out("", name+"-2  \t")
				out("", line)
			}
		}
	}
	row("BenchmarkSeedSelectionLowdeg/table/bitwise", bitwise, 661)
	row("BenchmarkSeedSelectionLowdeg/table/flat", flat, flatAllocs)
	return b.String()
}

const (
	bitwiseKey = "parcolor/internal/lowdeg BenchmarkSeedSelectionLowdeg/table/bitwise"
	flatKey    = "parcolor/internal/lowdeg BenchmarkSeedSelectionLowdeg/table/flat"
)

// TestGateComparesMediansOfRepeatedRuns drives the gate's comparison —
// (new − old)/old against the 10% tolerance — over five-run streams in
// both directions: a slow first run must not fail the gate, and a fast
// first run must not hide four slow ones.
func TestGateComparesMediansOfRepeatedRuns(t *testing.T) {
	const tol = 0.10
	base := []int{3300, 3410, 3250, 3390, 3360}
	oldRows, _, err := parse(writeStream(t, "base.json", fiveRuns(base, base, 661)))
	if err != nil {
		t.Fatal(err)
	}
	if oldRows[bitwiseKey].ns != 3360 || oldRows[flatKey].ns != 3360 {
		t.Errorf("baseline medians %v, want 3360 for both rows", oldRows)
	}
	slowFirst := []int{4900, 3350, 3280, 3400, 3310}
	fastFirst := []int{3300, 4100, 4050, 4200, 3990}
	newRows, _, err := parse(writeStream(t, "new.json", fiveRuns(slowFirst, fastFirst, 661)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key     string
		regress bool
	}{{bitwiseKey, false}, {flatKey, true}} {
		o, n := oldRows[tc.key], newRows[tc.key]
		if got := len(regressions(o, n, tol)) > 0; got != tc.regress {
			t.Errorf("%s: old %.0f ns/op, new %.0f ns/op: regression = %v, want %v", tc.key, o.ns, n.ns, got, tc.regress)
		}
	}
}

// TestGateFailsOnAllocsRise pins the allocation half of the gate: a row
// whose median allocs/op rises regresses although its ns/op holds, while
// a baseline row without allocs/op, such as the serving stream's, is
// compared by ns/op alone.
func TestGateFailsOnAllocsRise(t *testing.T) {
	const tol = 0.10
	base := []int{3300, 3410, 3250, 3390, 3360}
	oldRows, _, err := parse(writeStream(t, "base.json", fiveRuns(base, base, 225)))
	if err != nil {
		t.Fatal(err)
	}
	newRows, _, err := parse(writeStream(t, "new.json", fiveRuns(base, base, 229)))
	if err != nil {
		t.Fatal(err)
	}
	if o, n := oldRows[flatKey], newRows[flatKey]; o.ns != n.ns || o.allocs != 225 || n.allocs != 229 {
		t.Fatalf("fixture medians old %+v, new %+v", o, n)
	}
	why := regressions(oldRows[flatKey], newRows[flatKey], tol)
	if len(why) != 1 || !strings.Contains(why[0], "allocs/op 225 -> 229") {
		t.Errorf("flat row: regressions %q, want the allocs/op rise alone", why)
	}
	if why := regressions(oldRows[bitwiseKey], newRows[bitwiseKey], tol); len(why) != 0 {
		t.Errorf("bitwise row, unchanged: regressions %q", why)
	}
	if why := regressions(row{ns: 3360, allocs: -1}, newRows[flatKey], tol); len(why) != 0 {
		t.Errorf("baseline without allocs/op: regressions %q", why)
	}
}
