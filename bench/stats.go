package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the distribution of one metric over the runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Median = median(values)
	s.Q1, s.Q3 = quartiles(values)
	return s
}

// spread is the quartile distance as a share of the median: the
// run-to-run noise a difference must exceed to mean anything.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

func median(values []float64) float64 {
	v := sorted(values)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartile with the method of
// Python's statistics.quantiles(values, n=4) (the "exclusive" default),
// so spreads computed here match the ones an outside checker computes.
func quartiles(values []float64) (q1, q3 float64) {
	v := sorted(values)
	ld := len(v)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return v[0], v[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// rank is the 1-based nearest-rank position of the p-th percentile among
// n samples; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(p, len(asc))-1]
}

// tailPercentile returns the highest reportable percentile for n samples:
// the highest one with at least ten samples beyond it, or 0 when even the
// median has fewer than ten above it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// Compare verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// compareMetric judges a change from base to cur for one metric. delta is
// the signed relative change of the median (positive means the number
// grew). A spread wider than the bound leaves the verdict unresolved
// unless every run of cur reads better than every run of base.
func compareMetric(base, cur summary, better string, bound float64) (delta float64, verdict string) {
	if base.Median != 0 {
		delta = (cur.Median - base.Median) / math.Abs(base.Median)
	}
	worsening := delta
	if better == "higher" {
		worsening = -delta
	}
	if base.spread() > bound || cur.spread() > bound {
		if allBetter(base.Values, cur.Values, better) {
			return delta, verdictBetter
		}
		return delta, verdictUnresolved
	}
	switch {
	case worsening > bound:
		return delta, verdictWorse
	case -worsening > bound:
		return delta, verdictBetter
	}
	return delta, verdictSame
}

// allBetter reports whether every value of cur beats every value of base.
func allBetter(base, cur []float64, better string) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	b, c := sorted(base), sorted(cur)
	if better == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}

// formatValue prints a metric value with enough digits to compare runs.
func formatValue(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	case a >= 0.01:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
