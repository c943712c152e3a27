package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
)

func TestParseArgs(t *testing.T) {
	opt, err := parseArgs([]string{"-nodes", "1=a:1,2=b:2", "-once"})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.nodes) != 2 || opt.nodes[2] != "b:2" || !opt.once {
		t.Errorf("opt = %+v", opt)
	}
	if _, err := parseArgs([]string{"-nodes", "x=y"}); err == nil {
		t.Error("bad node map accepted")
	}
	if _, err := parseArgs(nil); err == nil {
		t.Error("empty -nodes accepted")
	}
}

func TestParsePrometheus(t *testing.T) {
	in := `# TYPE vp_txn_commit counter
vp_txn_commit 7
vp_net_msg_sent{kind="probe"} 3
vp_net_msg_sent{kind="prepare"} 4
vp_viewchange_ms{quantile="0.5"} 1.25
`
	m, err := parsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m["vp_txn_commit"] != 7 {
		t.Errorf("commit = %v", m["vp_txn_commit"])
	}
	// Labeled series sum into the base family.
	if m["vp_net_msg_sent"] != 7 {
		t.Errorf("msg sent = %v, want 7", m["vp_net_msg_sent"])
	}
}

// TestSnapshotAgainstLiveEndpoints points a one-node snapshot at a real
// debughttp server and checks the rendered table carries the node's
// counters and span phases through end to end.
func TestSnapshotAgainstLiveEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Inc(metrics.CTxnCommit, 12)
	reg.Inc(metrics.CVPCreated, 3)
	reg.Inc(metrics.CRefreshing, 417) // copies still locked for R5 refresh
	rec := trace.New(64)
	rec.SetEnabled(true)
	ctx := model.TraceCtx{Trace: 9, Span: 1}
	rec.Span(1, ctx, "coord-txn", 0, 3*time.Millisecond, model.TxnID{})
	rec.Span(1, ctx.Child(2), "coord-lock", 0, time.Millisecond, model.TxnID{})
	h := &debughttp.Health{}
	h.Set(true, model.VPID{N: 4, P: 1}, []model.ProcID{1})
	h.SetCause("probe-mismatch")
	h.SetCause("") // invited since: the last cause of its own stands
	srv, addr, err := debughttp.Serve("127.0.0.1:0", reg, h, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out strings.Builder
	opt := &options{nodes: map[model.ProcID]string{1: addr}, interval: time.Second}
	snapshot(opt, &http.Client{Timeout: time.Second}, &out)
	got := out.String()
	for _, want := range []string{"serving", "4/P1", "3 probe-mismatch", "417", "12", "coord-txn", "coord-lock"} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot missing %q:\n%s", want, got)
		}
	}

	// A halted node answers its debug endpoints but says so.
	reg.Set(metrics.CNodeHalted, 1)
	h.SetHalted("injected fsync failure")
	out.Reset()
	snapshot(opt, &http.Client{Timeout: time.Second}, &out)
	for _, want := range []string{"HALTED", "injected fsync failure"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("halted snapshot missing %q:\n%s", want, out.String())
		}
	}

	// An unreachable node renders DOWN instead of failing the snapshot.
	out.Reset()
	opt.nodes[2] = "127.0.0.1:1"
	snapshot(opt, &http.Client{Timeout: 200 * time.Millisecond}, &out)
	if !strings.Contains(out.String(), "DOWN") {
		t.Errorf("unreachable node not marked DOWN:\n%s", out.String())
	}
}
