package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/durable"
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
	cfg := cluster.CoreConfig(opt.delta)
	want := core.Config{Config: node.Config{Delta: 50 * time.Millisecond, LogCap: 1024},
		UseLogCatchup: true, UsePrevOpt: true}
	if cfg != want {
		t.Fatalf("core config = %+v, want %+v", cfg, want)
	}
	if pi := cfg.WithDefaults().Pi; pi != time.Second {
		t.Errorf("π = %v, want 20δ = 1s", pi)
	}
	dopts := cluster.JournalOptions(nil, opt.id, nil)
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

// TestMetricsEndpointOverTCPCluster boots a 3-node cluster through
// vpnode's own run, without -data, commits one transaction through it,
// and scrapes a node's /metrics endpoint: the Prometheus text output
// must show the commit and per-kind message counters the transaction
// incremented.
func TestMetricsEndpointOverTCPCluster(t *testing.T) {
	procs := bootCluster(t, 3, nil)
	deadline := commitIncr(t, procs[0])

	// The coordinator answers the client in the same turn that sends the
	// Decides, so the reply can land before those sends are counted:
	// scrape until they are, up to the deadline.
	var body string
	for {
		body = scrape(t, "http://"+procs[0].debugAddr+"/metrics")
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

// TestBootRestoresFromJournal boots a 3-node cluster through run, each
// node with -data, commits an increment, then stops processor 3 and
// boots it again from its directory: the second boot must restore
// rather than start fresh, rejoin a partition (/healthz assigned), and
// export its journal's counters and replay time on /metrics.
func TestBootRestoresFromJournal(t *testing.T) {
	dir := t.TempDir()
	procs := bootCluster(t, 3, func(i int) []string {
		return []string{"-data", filepath.Join(dir, fmt.Sprint(i))}
	})
	commitIncr(t, procs[0])
	if out := procs[2].out.String(); !strings.Contains(out, "fresh durable state") {
		t.Fatalf("first boot did not start fresh:\n%s", out)
	}

	procs[2].shutdown(t)
	p3 := boot(t, procs[2].args)
	deadline := time.Now().Add(10 * time.Second)
	var h debughttp.HealthState
	for {
		resp, err := http.Get("http://" + p3.debugAddr + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && h.Assigned || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !h.Assigned {
		t.Fatalf("restarted node never assigned: %+v", h)
	}
	out := p3.out.String()
	if !strings.Contains(out, "restored from") || strings.Contains(out, "fresh durable state") {
		t.Fatalf("second boot did not restore from its journal:\n%s", out)
	}
	body := scrape(t, "http://"+p3.debugAddr+"/metrics")
	for _, want := range []string{"vp_journal_fsync ", "vp_journal_recovery_ms_count 1", "vp_node_halted 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// proc is one processor running in-process through run, as main runs it.
type proc struct {
	args      []string
	addr      string
	debugAddr string
	out       syncBuffer // stdout and stderr
	stop      context.CancelFunc
	once      sync.Once
	done      chan error
}

// boot parses args and runs the processor until the test ends or
// shutdown stops it.
func boot(t *testing.T, args []string) *proc {
	t.Helper()
	opt, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{args: args, addr: opt.addrs[opt.id], debugAddr: opt.debugAddr, stop: cancel, done: make(chan error, 1)}
	go func() { p.done <- run(ctx, opt, &p.out, &p.out) }()
	t.Cleanup(func() { p.shutdown(t) })
	return p
}

// shutdown stops the processor, as SIGTERM does, and waits for run.
func (p *proc) shutdown(t *testing.T) {
	p.once.Do(func() {
		p.stop()
		if err := <-p.done; err != nil {
			t.Errorf("%v: %v\n%s", p.args, err, p.out.String())
		}
	})
}

// bootCluster boots processors 1..n on loopback, each with a debug
// endpoint, δ = 20ms and the extra flags of extra(i) when set.
func bootCluster(t *testing.T, n int, extra func(i int) []string) []*proc {
	t.Helper()
	ports, err := net.LoopbackAddrs(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]string, n)
	for i := range pairs {
		pairs[i] = fmt.Sprintf("%d=%s", i+1, ports[i])
	}
	procs := make([]*proc, n)
	for i := range procs {
		args := []string{"-id", fmt.Sprint(i + 1), "-cluster", strings.Join(pairs, ","),
			"-objects", "x", "-delta", "20ms", "-debug-addr", ports[n+i]}
		if extra != nil {
			args = append(args, extra(i+1)...)
		}
		procs[i] = boot(t, args)
	}
	return procs
}

// commitIncr commits an increment of x through p once the initial view
// has formed, and returns the deadline for what the test waits on next.
func commitIncr(t *testing.T, p *proc) time.Time {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := net.SubmitTCP(p.addr, wire.ClientTxn{Tag: 7, Ops: wire.IncrementOps("x", 5)}, 2*time.Second)
		if err == nil && res.Committed {
			return deadline
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction never committed: res=%+v err=%v", res, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// syncBuffer is a bytes.Buffer the processor's goroutines may write
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
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
