package main

import (
	"strings"
	"testing"
)

func TestSummarizeCountsWinsInTheMetricsDirection(t *testing.T) {
	base := []float64{2.6, 2.7, 2.8, 2.9}
	change := []float64{2.0, 2.7, 2.1, 3.0}
	got := summarize("write_p50_ms", "lower", base, change)
	if !strings.Contains(got, "change wins 2/4 (loses 1)") {
		t.Errorf("lower-is-better: %s", got)
	}
	got = summarize("tps", "higher", base, change)
	if !strings.Contains(got, "change wins 1/4 (loses 2)") {
		t.Errorf("higher-is-better: %s", got)
	}
}

func TestQuartilesExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4) == [2.25, 4.5, 6.75]
	q1, q3 := quartiles([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	if q1 != 2.25 || q3 != 6.75 {
		t.Errorf("quartiles = %v, %v; want 2.25, 6.75", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
