package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middle values for
// an even count); 0 for an empty slice. vals is not modified.
func median(vals []float64) float64 { return sortedMedian(sortedCopy(vals)) }

// sortedMedian reads the median of an already sorted slice.
func sortedMedian(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// midMean is the mean of vals without its smallest and largest value
// (the plain mean below three values). Boot times are bimodal — a peer's
// 50 ms redial back-off either fires during view formation or does not —
// so their median flips between the two modes from run to run while a
// mean moves smoothly with the mix; dropping the extremes keeps one
// stalled boot from moving it.
func midMean(vals []float64) float64 {
	s := sortedCopy(vals)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	if len(s) == 0 {
		return 0
	}
	return sum / float64(len(s))
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(vals,
// n=4) does (exclusive method), because that is how the acceptance check
// computes the run-to-run spread. Fewer than two values have no spread:
// both quartiles are then the single value (or 0).
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than the story of a few outliers.
const tailBeyond = 10

// tailPercentile reads the 99th percentile of sorted, or — when fewer
// than tailBeyond samples lie beyond it — the highest percentile that
// still has tailBeyond samples beyond it. It returns the percentile used
// (0.99 or lower) and its value; ok is false when sorted is too short
// for any percentile to qualify.
func tailPercentile(sorted []float64) (pct, val float64, ok bool) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0, false
	}
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-idx >= tailBeyond {
		return 0.99, sorted[idx], true
	}
	idx = n - 1 - tailBeyond
	return float64(idx+1) / float64(n), sorted[idx], true
}

// sortedCopy returns vals sorted ascending without modifying vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
