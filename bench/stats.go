package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match the ones an outside check
// computes from the same values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// percentile returns the nearest-rank p-th percentile of xs, the
// smallest sample with at least p% of the samples at or below it, and how
// many samples lie above it (0 and 0 for an empty slice). The 99th
// percentile of 1000 samples leaves 10 above it; of fewer than 100
// samples it is the maximum.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p * float64(len(s)) / 100))
	k = max(1, min(k, len(s)))
	return s[k-1], len(s) - k
}

// tailBeyond is how many samples the reported tail leaves above it.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, with that percentile and the number of samples
// above it. With fewer than tailBeyond+1 samples no such percentile
// exists, and tail returns the maximum (percentile 100, none beyond).
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100, 0
	}
	k := n - 1 - tailBeyond
	return s[k], 100 * float64(k+1) / float64(n), tailBeyond
}

// interval is one closed stretch of wall time.
type interval struct{ start, end time.Time }

// unionLength returns the total time covered by at least one interval;
// overlapping intervals (concurrent bins, nested calls) count once.
func unionLength(ivs []interval) time.Duration {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b interval) int { return a.start.Compare(b.start) })
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, iv := range s {
		if !iv.end.After(iv.start) {
			continue
		}
		if open && !iv.start.After(curEnd) {
			if iv.end.After(curEnd) {
				curEnd = iv.end
			}
			continue
		}
		if open {
			total += curEnd.Sub(curStart)
		}
		curStart, curEnd, open = iv.start, iv.end, true
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}

// metricName is the grammar every emitted metric name follows: it starts
// with a letter or digit and has at most 64 letters, digits, '_', '.'
// and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	return nil
}
