package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
)

func writeTrace(t *testing.T, evs []trace.Event) string {
	t.Helper()
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var vp1 = model.VPID{N: 1, P: 1}

func goodTrace() []trace.Event {
	txn := model.TxnID{Start: 5, P: 1, Seq: 1}
	return []trace.Event{
		{Kind: trace.EvPlacement, Obj: "x", Procs: model.NewProcSet(1, 2, 3)},
		{Kind: trace.EvVPInvite, Proc: 1, VP: vp1, At: time.Millisecond},
		{Kind: trace.EvVPDepart, Proc: 2, VP: model.VPID{N: 0, P: 2}, At: time.Millisecond},
		{Kind: trace.EvVPCommit, Proc: 1, VP: vp1, At: 3 * time.Millisecond, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: trace.EvVPJoin, Proc: 1, VP: vp1, At: 3 * time.Millisecond, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: trace.EvVPJoin, Proc: 2, VP: vp1, At: 4 * time.Millisecond, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: trace.EvVPJoin, Proc: 3, VP: vp1, At: 4 * time.Millisecond, Procs: model.NewProcSet(1, 2, 3)},
		{Kind: trace.EvTxnBegin, Proc: 1, VP: vp1, Txn: txn, At: 5 * time.Millisecond},
		{Kind: trace.EvTxnRead, Proc: 1, Txn: txn, Obj: "x", Procs: model.NewProcSet(1), At: 6 * time.Millisecond},
		{Kind: trace.EvTxnWrite, Proc: 1, Txn: txn, Obj: "x", Procs: model.NewProcSet(1, 2, 3), At: 7 * time.Millisecond},
		{Kind: trace.EvTxnCommit, Proc: 1, Txn: txn, At: 8 * time.Millisecond},
	}
}

func TestCheckCleanTrace(t *testing.T) {
	path := writeTrace(t, goodTrace())
	var out, errb bytes.Buffer
	if code := run([]string{"check", path}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s, stdout %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "OK: S1 S2 S3 R2 R3 hold") {
		t.Errorf("missing OK line:\n%s", out.String())
	}
}

func TestCheckViolationExitsNonZero(t *testing.T) {
	evs := goodTrace()
	evs[5].Procs = model.NewProcSet(1, 2) // P2 disagrees on the view: S1
	path := writeTrace(t, evs)
	var out bytes.Buffer
	if code := run([]string{"check", path}, nil, &out, &out); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "S1") || !strings.Contains(out.String(), "VIOLATION") {
		t.Errorf("violation not reported:\n%s", out.String())
	}
}

func TestTimelineAndLatency(t *testing.T) {
	path := writeTrace(t, goodTrace())
	var out bytes.Buffer
	if code := run([]string{"timeline", path}, nil, &out, &out); code != 0 {
		t.Fatalf("timeline exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "vp (1,P1)") && !strings.Contains(out.String(), "vp ") {
		t.Errorf("timeline output lacks vp block:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "formation latency 3ms") {
		t.Errorf("formation latency missing:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"latency", path}, nil, &out, &out); code != 0 {
		t.Fatalf("latency exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "proc") || !strings.Contains(out.String(), "3ms") {
		t.Errorf("latency table wrong (P2 departed at 1ms, joined at 4ms):\n%s", out.String())
	}
}

func TestReadsStdinAndRejectsJunk(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"check"}, strings.NewReader("{broken\n"), &out, &out); code != 2 {
		t.Fatalf("garbage on stdin: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"frobnicate", "x"}, nil, &out, &out); code != 2 {
		t.Fatalf("unknown command: exit %d, want 2", code)
	}
	out.Reset()
	if code := run(nil, nil, &out, &out); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
}

// TestSpansTopN renders a small written capture the way `vptrace spans
// -top 3` is used on a traced run: four gateway-rooted requests across
// two nodes, the phase table, the three longest trees with their
// critical paths, and a note for the one left out.
func TestSpansTopN(t *testing.T) {
	span := func(proc model.ProcID, ctx model.TraceCtx, phase string, start, end time.Duration) trace.Event {
		return trace.Event{Kind: trace.EvSpan, Proc: proc, Ctx: ctx, Msg: phase, At: end, Aux: int64(end - start)}
	}
	var evs []trace.Event
	for i := 1; i <= 4; i++ {
		root := model.TraceCtx{Trace: uint64(i), Span: 0xFF000001}
		coord := root.Child(0x01000001)
		end := time.Duration(i) * 10 * time.Millisecond
		evs = append(evs,
			span(2, coord.Child(0x02000001), "part-stage", 2*time.Millisecond, 5*time.Millisecond),
			span(1, coord, "coord-txn", time.Millisecond, end-time.Millisecond),
			span(model.NoProc, root, "gw-request", 0, end))
	}
	path := writeTrace(t, evs)
	var out, errb bytes.Buffer
	if code := run([]string{"spans", "-top", "3", path}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"4 traces, 12 spans\n",
		"\ngw-request ", "\ncoord-txn ", "\npart-stage ",
		"critical path: gw-request@",
		"(1 more traces; -top 0 shows all)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "orphan") {
		t.Errorf("complete capture reported orphans:\n%s", got)
	}
	// Longest first, and the shortest request is the one left out.
	first := strings.Index(got, "\ntrace ")
	if first < 0 || !strings.HasPrefix(got[first:], "\ntrace 0000000000000004 (40ms, 3 spans)") {
		t.Errorf("first rendered tree is not the longest:\n%s", got)
	}
	if strings.Contains(got, "trace 0000000000000001") {
		t.Errorf("-top 3 rendered the fourth-longest tree:\n%s", got)
	}
}
