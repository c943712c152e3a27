package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		_, a, err := genStreams(sp, 7, 2, 4096)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _ := genStreams(sp, 7, 2, 4096)
		_, c, _ := genStreams(sp, 8, 2, 4096)
		if a != b {
			t.Errorf("%s: same seed gave hashes %s and %s", sp.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %s", sp.Name, a)
		}
	}
}

func TestOpMixWithinOnePercentOfSpec(t *testing.T) {
	const n = 100000
	for _, sp := range specs {
		streams, _, err := genStreams(sp, 1, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		var got [3]float64
		for _, r := range streams[0] {
			got[r.Kind]++
		}
		want := [3]float64{sp.ReadFrac, 1 - sp.ReadFrac - sp.TransferFrac, sp.TransferFrac}
		for k := range got {
			if f := got[k] / n; math.Abs(f-want[k]) > 0.01 {
				t.Errorf("%s: %s share %.4f, spec %.4f", sp.Name, opKind(k), f, want[k])
			}
		}
	}
}

func TestTransfersSpanTwoShards(t *testing.T) {
	sp, _ := specByName("shard_n5")
	shardOf, err := sp.shardOf()
	if err != nil {
		t.Fatal(err)
	}
	streams, _, err := genStreams(sp, 1, 2, 20000)
	if err != nil {
		t.Fatal(err)
	}
	transfers := 0
	for _, s := range streams {
		for _, r := range s {
			if r.Kind != opTransfer {
				continue
			}
			transfers++
			if sa, sb := shardOf(int(r.A)), shardOf(int(r.B)); sa == sb || sa < 1 || sb < 1 {
				t.Fatalf("transfer o%d -> o%d stays on shard %d under -shard-seed %d", r.A, r.B, sa, shardSeed)
			}
		}
	}
	if transfers == 0 {
		t.Fatal("no transfers generated")
	}
}

// TestBenchmarkFileMatchesTheHarness keeps BENCHMARK.json and the code
// from drifting apart: the same workloads, and every declared metric one
// the harness can produce.
func TestBenchmarkFileMatchesTheHarness(t *testing.T) {
	bf, err := loadBenchFile(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, specs[i].Name)
		}
	}
	a := activity{window: window{seconds: 1}}
	produced := a.layerMetrics()
	for _, k := range []string{"probe.node_direct_ms", "probe.wire_ns_per_frame", "probe.locks_ns_per_acquire_release",
		"probe.store_ns_per_stage_commit", "probe.durable_stage_sync_us", "write.unattributed_ms", "trace_overhead_frac"} {
		produced[k] = metric{}
	}
	for phase := range writePhases {
		produced["span."+phase+"_us"] = metric{}
	}
	for _, phase := range []string{"gw-request", "coord-txn", "coord-lock"} {
		produced["span."+phase+"_us"] = metric{}
	}
	for _, g := range bf.PerLayer {
		if _, ok := produced[g.Name]; !ok {
			t.Errorf("per_layer metric %q is not one the harness produces", g.Name)
		}
	}
	e2e := window{seconds: 1, writeMS: make([]float64, minLatencySamples), readMS: make([]float64, minLatencySamples)}.endToEnd()
	e2e["setup_s"] = metric{}
	for _, g := range bf.EndToEnd {
		if _, ok := e2e[g.Name]; !ok {
			t.Errorf("end_to_end metric %q is not one the harness produces", g.Name)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("end_to_end metric %q has bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
}
