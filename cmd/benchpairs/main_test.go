package main

import (
	"os"
	"path/filepath"
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

// TestReadResultFromResultSet reads the named workload's run, its
// per-layer CPU figures included, out of a result set shaped like the
// harness's benchmark/out/results.json, and refuses one without them.
func TestReadResultFromResultSet(t *testing.T) {
	tree := t.TempDir()
	out := filepath.Join(tree, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(body string) {
		if err := os.WriteFile(filepath.Join(out, "results.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"host": {"gomaxprocs": 2}, "results": [
	  {"workload": "read_n3", "correct": true, "end_to_end": {"tps": {"value": 900}},
	   "per_layer": {"gw.cpu_us_per_op": {"value": 111, "unit": "us"}, "node.cpu_us_per_op": {"value": 222, "unit": "us"}}},
	  {"workload": "write_n3", "correct": true, "attempted": 19904, "failed": 2,
	   "end_to_end": {"tps": {"value": 796.16, "unit": "1/s", "n": 19904}, "setup_s": {"value": 0.0289}},
	   "per_layer": {"gw.cpu_us_per_op": {"value": 277.3, "unit": "us"}, "gw.rss_mb": {"value": 14.2, "unit": "MB"},
	                 "node.cpu_us_per_op": {"value": 880.2, "unit": "us"}}}]}`)
	r, err := readResult(tree, "write_n3")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 19904 || r.Failed != 2 || r.EndToEnd["tps"].Value != 796.16 || r.EndToEnd["setup_s"].Value != 0.0289 {
		t.Errorf("write_n3 run = %+v", r)
	}
	if r.PerLayer["node.cpu_us_per_op"].Value != 880.2 || r.PerLayer["gw.cpu_us_per_op"].Value != 277.3 {
		t.Errorf("write_n3 layers = %v", r.PerLayer)
	}
	if _, err := readResult(tree, "shard_n5"); err == nil {
		t.Error("a workload the result set lacks read without error")
	}
	write(`{"results": [{"workload": "write_n3", "per_layer": {"gw.cpu_us_per_op": {"value": 1}}}]}`)
	if _, err := readResult(tree, "write_n3"); err == nil || !strings.Contains(err.Error(), "node.cpu_us_per_op") {
		t.Errorf("a run without node.cpu_us_per_op: err = %v", err)
	}
}
