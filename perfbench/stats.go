package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Metric is one reported figure. N is the sample count behind a median
// or percentile, or the number of work items behind a ratio; zero when
// the figure is a single reading.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// metricName is the character set every reported name must stay in.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric name.
func validName(s string) bool { return metricName.MatchString(s) }

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: fewer and the "percentile" is one or two
// outliers.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of samples by
// the nearest-rank rule. It sorts samples in place. A tail percentile
// (q > 50) fails unless at least minBeyond samples lie above its rank.
func percentile(samples []int64, q float64) (int64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q)
	}
	if q <= 0 || q >= 100 {
		return 0, fmt.Errorf("percentile p%g out of range", q)
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(q / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if q > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g needs %d samples beyond it, have %d of %d",
			q, minBeyond, n-rank, n)
	}
	return samples[rank-1], nil
}

// series is a set of duration samples in nanoseconds.
type series []int64

func (s *series) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantileMetric reports the q-th percentile of s in unit (one of
// "ms", "us", "ns"). A percentile that lacks samples is returned with
// its error; the caller decides whether that fails the run.
func quantileMetric(name string, s series, q float64, unit string) (Metric, error) {
	v, err := percentile(s, q)
	m := Metric{Name: name, Value: scaleNs(float64(v), unit), Unit: unit, N: len(s)}
	if err != nil {
		return m, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}

// scaleNs converts nanoseconds to unit.
func scaleNs(ns float64, unit string) float64 {
	switch unit {
	case "s":
		return ns / 1e9
	case "ms":
		return ns / 1e6
	case "us":
		return ns / 1e3
	}
	return ns
}

// ladder renders the percentiles of s that have enough samples beyond
// them, in microseconds.
func ladder(name string, s series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s percentiles (us, n=%d):", name, len(s))
	for _, q := range []float64{50, 90, 99, 99.9} {
		if v, err := percentile(s, q); err == nil {
			fmt.Fprintf(&b, " p%g=%.1f", q, float64(v)/1e3)
		}
	}
	if len(s) > 0 {
		fmt.Fprintf(&b, " max=%.1f", float64(s[len(s)-1])/1e3)
	}
	return b.String()
}

// median returns the median of xs (0 when empty); xs is sorted in
// place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
