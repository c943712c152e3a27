package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/model"
)

// TestParseArgsHarnessFlags: every flag the deployed-stack harness
// (benchmark/cluster.go) starts vpgateway with still parses.
func TestParseArgsHarnessFlags(t *testing.T) {
	opt, err := parseArgs([]string{
		"-listen", "127.0.0.1:0", "-cluster", "1=localhost:7001,2=localhost:7002",
		"-trace-sample", "8", "-shards", "4", "-shard-seed", "7", "-shard-replicas", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := opt.cfg
	if opt.listen != "127.0.0.1:0" || len(c.Cluster) != 2 || c.Cluster[2] != "localhost:7002" ||
		c.TraceSample != 8 || c.Tracer == nil || c.Shards != 4 || c.ShardSeed != 7 || c.ShardReplicas != 2 {
		t.Fatalf("flags parsed wrong: %+v", opt)
	}
}

// TestParseArgsRefusesRemovedFlags: the health poller's flag and the
// limits and batching settings that only ever ran at their defaults are
// gone, not silently ignored.
func TestParseArgsRefusesRemovedFlags(t *testing.T) {
	for _, f := range []string{"-health", "-max-inflight", "-max-queue", "-per-try", "-deadline", "-session-marks",
		"-batch", "-batch-window", "-batch-max"} {
		_, err := parseArgs([]string{"-cluster", "1=localhost:7001", f, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want it undefined", f, err)
		}
	}
}

// TestParseArgsFixedSettings: with no tuning flags the gateway traces
// nothing and routes unsharded.
func TestParseArgsFixedSettings(t *testing.T) {
	opt, err := parseArgs([]string{"-cluster", "1=localhost:7001"})
	if err != nil {
		t.Fatal(err)
	}
	want := gateway.Config{Cluster: map[model.ProcID]string{1: "localhost:7001"}, Shards: 1, ShardSeed: 1}
	if opt.listen != ":8080" || opt.traceOut != "" || !reflect.DeepEqual(opt.cfg, want) {
		t.Fatalf("options = %+v, want config %+v", opt, want)
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // no cluster
		{"-cluster", "zap"},                   // malformed entry
		{"-cluster", "0=a:1"},                 // bad processor id
		{"-cluster", "1=a:1", "-shards", "0"}, // no shards
	}
	for _, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) accepted", args)
		}
	}
}
