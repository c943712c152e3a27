package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

func TestParseArgs(t *testing.T) {
	opt, err := parseArgs([]string{
		"-id", "2",
		"-cluster", "1=localhost:7001, 2=localhost:7002,3=localhost:7003",
		"-objects", "x, y,",
		"-delta", "10ms",
		"-debug-addr", "127.0.0.1:0",
		"-trace", "/tmp/t.jsonl",
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
	if opt.delta != 10*time.Millisecond || opt.debugAddr != "127.0.0.1:0" || opt.traceOut != "/tmp/t.jsonl" {
		t.Fatalf("flags parsed wrong: %+v", opt)
	}
}

func TestParseArgsTransportFlags(t *testing.T) {
	opt, err := parseArgs([]string{
		"-id", "1", "-cluster", "1=localhost:7001",
		"-dial-timeout", "500ms",
		"-reconnect-min", "10ms",
		"-reconnect-max", "1s",
		"-peer-queue", "64",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := net.TCPConfig{DialTimeout: 500 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: time.Second, QueueLen: 64}
	if opt.tcp != want {
		t.Fatalf("tcp config parsed wrong: %+v", opt.tcp)
	}
	// Unset transport flags stay zero and defer to the transport's own
	// defaults.
	opt, err = parseArgs([]string{"-id", "1", "-cluster", "1=localhost:7001"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.tcp != (net.TCPConfig{}) {
		t.Fatalf("transport flags should default to zero, got %+v", opt.tcp)
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
	addrs := map[model.ProcID]string{
		1: "127.0.0.1:17841",
		2: "127.0.0.1:17842",
		3: "127.0.0.1:17843",
	}
	cat := model.FullyReplicated(len(addrs), "x")
	cfg := core.Config{Config: node.Config{Delta: 20 * time.Millisecond, LogCap: 64}}
	var nodes []*net.TCPNode
	for id := model.ProcID(1); id <= 3; id++ {
		tcp := net.NewTCPNode(id, addrs, core.New(id, cfg, cat, nil))
		if err := tcp.Run(); err != nil {
			t.Fatalf("node %v: %v", id, err)
		}
		defer tcp.Stop()
		nodes = append(nodes, tcp)
	}
	srv, debugAddr, err := debughttp.Serve("127.0.0.1:0", nodes[0].Metrics(), nil, nodes[0].Tracer())
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
