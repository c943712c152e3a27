package main

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TestParseArgs passes every flag the deployed-stack harness
// (benchmark/cluster.go) starts vpnode with.
func TestParseArgs(t *testing.T) {
	opt, err := parseArgs([]string{
		"-id", "2",
		"-cluster", "1=localhost:7001, 2=localhost:7002,3=localhost:7003",
		"-objects", "x, y,",
		"-delta", "10ms",
		"-data", "/var/vp/n2",
		"-debug-addr", "127.0.0.1:0",
		"-trace", "/tmp/t.jsonl",
		"-shards", "4", "-shard-seed", "7", "-shard-replicas", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.id != 2 || len(opt.addrs) != 3 || opt.addrs[3] != "localhost:7003" {
		t.Fatalf("cluster parsed wrong: %+v", opt)
	}
	if len(opt.objects) != 2 || opt.objects[0] != "x" || opt.objects[1] != "y" {
		t.Fatalf("objects parsed wrong: %v", opt.objects)
	}
	if opt.delta != 10*time.Millisecond || opt.dataDir != "/var/vp/n2" || opt.debugAddr != "127.0.0.1:0" ||
		opt.traceOut != "/tmp/t.jsonl" || opt.shards != 4 || opt.shardSeed != 7 || opt.shardReplicas != 2 {
		t.Fatalf("flags parsed wrong: %+v", opt)
	}
}

// TestParseArgsRefusesRemovedFlags: the tuning flags that only ever ran
// at their defaults are gone, not silently ignored.
func TestParseArgsRefusesRemovedFlags(t *testing.T) {
	for _, f := range []string{"-pi", "-fsync-interval", "-r5", "-trace-sample",
		"-dial-timeout", "-reconnect-min", "-reconnect-max", "-peer-queue"} {
		_, err := parseArgs([]string{"-id", "1", "-cluster", "1=localhost:7001", f, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want it undefined", f, err)
		}
	}
}

// TestParseArgsFixedSettings: with no tuning flags a node runs π = 20δ,
// log-based R5 refresh with the previous-partition optimization, and a
// committer journal whose unurgent records wait at most 2ms.
func TestParseArgsFixedSettings(t *testing.T) {
	opt, err := parseArgs([]string{"-id", "1", "-cluster", "1=localhost:7001"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.coreConfig()
	want := core.Config{Config: node.Config{Delta: 50 * time.Millisecond, LogCap: 1024},
		UseLogCatchup: true, UsePrevOpt: true}
	if cfg != want {
		t.Fatalf("core config = %+v, want %+v", cfg, want)
	}
	if pi := cfg.WithDefaults().Pi; pi != time.Second {
		t.Errorf("π = %v, want 20δ = 1s", pi)
	}
	dopts := opt.journalOptions(nil)
	if !reflect.DeepEqual(dopts, durable.Options{Committer: true, FlushInterval: 2 * time.Millisecond}) {
		t.Errorf("journal options = %+v", dopts)
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := [][]string{
		{},                                // no cluster
		{"-cluster", "1=a:1"},             // no id
		{"-id", "2", "-cluster", "1=a:1"}, // id not in cluster
		{"-id", "1", "-cluster", "zap"},   // malformed entry
		{"-id", "1", "-cluster", "0=a:1"}, // bad processor id
		{"-id", "1", "-cluster", "1=a:1", "-objects", " , "}, // no objects
	}
	for _, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%v) accepted", args)
		}
	}
}

// TestMetricsEndpointOverTCPCluster boots a 3-node in-process TCP
// cluster, commits one transaction through it, and scrapes a node's
// /metrics endpoint: the Prometheus text output must show the commit
// and per-kind message counters the transaction incremented.
func TestMetricsEndpointOverTCPCluster(t *testing.T) {
	c, err := cluster.Start(cluster.Config{N: 3, Catalog: model.FullyReplicated(3, "x"),
		Core: core.Config{Config: node.Config{Delta: 20 * time.Millisecond, LogCap: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	addrs, n1 := c.Addrs(), c.Node(1)
	srv, debugAddr, err := debughttp.Serve("127.0.0.1:0", n1.Metrics(), nil, n1.Tracer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Wait for the initial view to form, then commit through node 1.
	deadline := time.Now().Add(10 * time.Second)
	var res wire.ClientResult
	for {
		res, err = net.SubmitTCP(addrs[1], wire.ClientTxn{Tag: 7, Ops: wire.IncrementOps("x", 5)}, 2*time.Second)
		if err == nil && res.Committed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction never committed: res=%+v err=%v", res, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The coordinator answers the client in the same turn that sends the
	// Decides, so the reply can land before those sends are counted:
	// scrape until they are, up to the deadline.
	var body string
	for {
		body = scrape(t, "http://"+debugAddr+"/metrics")
		if strings.Contains(body, `vp_net_msg_sent{kind="decide"}`) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(body, "vp_txn_commit 1") {
		t.Errorf("/metrics missing the commit:\n%s", body)
	}
	for _, want := range []string{
		`vp_net_msg_sent{kind="prepare"}`,
		`vp_net_msg_sent{kind="decide"}`,
		"# TYPE vp_net_msg_delivered counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// scrape returns the body served at url.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
