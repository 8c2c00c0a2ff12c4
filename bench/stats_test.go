package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2}, 2},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5.5, 1.25, 9.0, 2.0, 7.75}, 1.625, 8.375},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{0, 0, 0, 0},
		{1, 1, 100, 0},
		{10, 10, 100, 0},
		{11, 1, 100.0 / 11, 10},
		{100, 90, 90, 10},
		{1000, 990, 99, 10},
	} {
		v, pct, beyond := tail(seq(tc.n))
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.beyond {
			t.Errorf("tail of %d samples = (%v, p%v, %d beyond), want (%v, p%v, %d)",
				tc.n, v, pct, beyond, tc.value, tc.pct, tc.beyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{0, 99, 0, 0},
		{1, 99, 1, 0},
		{10, 99, 10, 0},
		{100, 99, 99, 1},
		{1000, 99, 990, 10},
		{2160, 99, 2139, 21},
		{4, 50, 2, 2},
		{5, 0, 1, 4},
	} {
		v, beyond := percentile(seq(tc.n), tc.p)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("p%v of %d samples = (%v, %d beyond), want (%v, %d)", tc.p, tc.n, v, beyond, tc.value, tc.beyond)
		}
	}
}

func TestUnionLength(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Second), t0.Add(time.Duration(b) * time.Second)}
	}
	for _, tc := range []struct {
		name string
		ivs  []interval
		want time.Duration
	}{
		{"empty", nil, 0},
		{"one", []interval{at(1, 3)}, 2 * time.Second},
		{"disjoint", []interval{at(5, 6), at(1, 3)}, 3 * time.Second},
		{"overlapping", []interval{at(1, 4), at(3, 6)}, 5 * time.Second},
		{"nested", []interval{at(1, 10), at(2, 3), at(4, 5)}, 9 * time.Second},
		{"touching", []interval{at(1, 2), at(2, 3)}, 2 * time.Second},
		{"zero and reversed", []interval{at(2, 2), at(5, 4), at(1, 2)}, time.Second},
		{"chain", []interval{at(3, 5), at(1, 2), at(4, 8), at(1, 3)}, 7 * time.Second},
	} {
		if got := unionLength(tc.ivs); got != tc.want {
			t.Errorf("%s: unionLength = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for name, ok := range map[string]bool{
		"setup_s":                     true,
		"sparsify.self_s":             true,
		"trace.untraced_frac":         true,
		"9lives-x":                    true,
		"":                            false,
		".hidden":                     false,
		"_x":                          false,
		"has space":                   false,
		"slash/x":                     false,
		"ünicode":                     false,
		"a" + strings.Repeat("b", 63): true,
		"a" + strings.Repeat("b", 64): false,
	} {
		if err := checkMetricName(name); (err == nil) != ok {
			t.Errorf("checkMetricName(%q) = %v, want ok=%v", name, err, ok)
		}
	}
}
