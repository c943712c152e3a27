package debughttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Inc(metrics.CTxnCommit, 3)
	reg.Inc(metrics.CMsgSent+".probe", 9)
	srv, addr, err := Serve("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "vp_txn_commit 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, `vp_net_msg_sent{kind="probe"} 9`) {
		t.Errorf("/metrics missing per-kind series:\n%s", body)
	}

	// A scrape after more activity sees the new values: live, not cached.
	reg.Inc(metrics.CTxnCommit, 1)
	if _, body = get(t, "http://"+addr+"/metrics"); !strings.Contains(body, "vp_txn_commit 4") {
		t.Errorf("second scrape stale:\n%s", body)
	}

	if code, body = get(t, "http://"+addr+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars status %d, body %.80s", code, body)
	}
	if code, _ = get(t, "http://"+addr+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ = get(t, "http://"+addr+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	// With no Health holder the readiness endpoint reports not-ready.
	if code, _ = get(t, "http://"+addr+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz without holder: status %d, want 503", code)
	}

	// With no recorder the spans endpoint still serves, reporting
	// tracing disabled.
	code, body = get(t, "http://"+addr+"/spans")
	var sp SpansPayload
	if code != http.StatusOK {
		t.Errorf("/spans status %d", code)
	} else if err := json.Unmarshal([]byte(body), &sp); err != nil || sp.Enabled {
		t.Errorf("/spans without recorder = %q (err %v), want enabled=false", body, err)
	}
}

// TestSpansEndpoint exercises /spans over a live recorder: the payload
// must roll recorded spans up per phase and list the raw spans, and
// ?limit must bound the raw list without touching the rollup.
func TestSpansEndpoint(t *testing.T) {
	rec := trace.New(64)
	rec.SetEnabled(true)
	root := model.TraceCtx{Trace: 42, Span: 1}
	rec.Span(model.NoProc, root, "gw-request", 0, 10*time.Millisecond, model.TxnID{})
	for i := uint32(0); i < 3; i++ {
		rec.Span(1, root.Child(100+i), "coord-lock",
			time.Duration(i)*time.Millisecond, time.Duration(i+2)*time.Millisecond, model.TxnID{})
	}
	srv, addr, err := Serve("127.0.0.1:0", metrics.NewRegistry(), nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+addr+"/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	var sp SpansPayload
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatalf("bad /spans body %q: %v", body, err)
	}
	if !sp.Enabled || sp.Spans != 4 || sp.Traces != 1 {
		t.Errorf("payload = %+v, want enabled, 4 spans, 1 trace", sp)
	}
	byPhase := map[string]PhaseSummary{}
	for _, ph := range sp.Phases {
		byPhase[ph.Phase] = ph
	}
	if got := byPhase["coord-lock"]; got.Count != 3 || got.MaxUS != 2000 {
		t.Errorf("coord-lock rollup = %+v, want count 3 max 2000us", got)
	}
	if got := byPhase["gw-request"]; got.Count != 1 || got.P50US != 10000 {
		t.Errorf("gw-request rollup = %+v, want count 1 p50 10000us", got)
	}
	if len(sp.Recent) != 4 {
		t.Errorf("recent = %d spans, want 4", len(sp.Recent))
	}

	_, body = get(t, "http://"+addr+"/spans?limit=2")
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Recent) != 2 || sp.Spans != 4 {
		t.Errorf("limited payload = %+v, want 2 recent of 4 spans", sp)
	}
}

func TestHealthz(t *testing.T) {
	reg := metrics.NewRegistry()
	h := &Health{}
	srv, addr, err := Serve("127.0.0.1:0", reg, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Unknown state: not ready.
	if code, _ := get(t, "http://"+addr+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("unknown state: status %d, want 503", code)
	}

	h.Set(true, model.VPID{N: 3, P: 2}, []model.ProcID{1, 2, 3})
	reg.Inc(metrics.CTxnInDoubt, 2) // two coordinated transactions voted on, not decided
	reg.Inc(metrics.CRefreshing, 5) // five copies still locked for R5 refresh
	code, body := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK {
		t.Errorf("assigned: status %d, want 200", code)
	}
	var st HealthState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /healthz body %q: %v", body, err)
	}
	if !st.OK || st.VPN != 3 || st.VPP != 2 || len(st.View) != 3 || st.InDoubt != 2 || st.Refreshing != 5 {
		t.Errorf("state = %+v", st)
	}

	// A departed node flips to not-ready.
	h.Set(false, model.VPID{N: 3, P: 2}, nil)
	if code, _ = get(t, "http://"+addr+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("departed: status %d, want 503", code)
	}

	// A halted node is not ready whatever its view says, and says why.
	h.Set(true, model.VPID{N: 4, P: 2}, []model.ProcID{1, 2, 3})
	h.SetHalted("disk gone")
	code, body = get(t, "http://"+addr+"/healthz")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /healthz body %q: %v", body, err)
	}
	if code != http.StatusServiceUnavailable || st.OK || st.Halted != "disk gone" {
		t.Errorf("halted: status %d, state %+v; want 503, not ok, the reason", code, st)
	}
}
