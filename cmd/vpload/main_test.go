package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/trace"
)

func TestParseArgsTraceFlags(t *testing.T) {
	opt, err := parseArgs([]string{"-local", "3", "-trace", "/tmp/t.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	// -trace without -trace-sample means trace everything.
	if opt.traceOut != "/tmp/t.jsonl" || opt.traceSample != 1 {
		t.Fatalf("trace flags parsed wrong: %+v", opt)
	}
	opt, err = parseArgs([]string{"-local", "3", "-trace-sample", "16"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.traceSample != 16 {
		t.Fatalf("trace-sample parsed wrong: %+v", opt)
	}
	if _, err := parseArgs([]string{"-addr", "http://x:1", "-trace", "/tmp/t.jsonl"}); err == nil {
		t.Error("-trace accepted without -local")
	}
}

// TestTracedLocalWriteProducesSpanTree is the end-to-end acceptance test
// for the causal tracing layer: one write through the vpload -local
// stack — HTTP gateway, binary wire codec over real sockets, 2PC across
// three nodes, in-memory durable journal — must reassemble into a single
// span tree rooted at the gateway request, with the coordinator's 2PC
// phases and the journal spans beneath it.
func TestTracedLocalWriteProducesSpanTree(t *testing.T) {
	opt := &options{
		local: 3, objects: 2, delta: 20 * time.Millisecond,
		batchWindow: 2 * time.Millisecond, traceSample: 1,
	}
	lc, err := bootLocal(opt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.stop()
	if len(lc.recs) != 4 {
		t.Fatalf("traced boot has %d recorders, want gateway + 3 nodes", len(lc.recs))
	}

	// One increment through the gateway; retry while the view forms.
	body, _ := json.Marshal(gateway.TxnRequest{Ops: []gateway.TxnOp{
		{Kind: "incr", Obj: "o0", Delta: 1},
	}})
	deadline := time.Now().Add(15 * time.Second)
	var tr gateway.TxnResponse
	for {
		resp, err := http.Post(lc.url+"/txn", "application/json", bytes.NewReader(body))
		if err == nil {
			committed := resp.StatusCode == http.StatusOK &&
				json.NewDecoder(resp.Body).Decode(&tr) == nil && tr.Committed
			resp.Body.Close()
			if committed {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never committed: %+v err=%v", tr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The decide round's spans close when the last ack lands, which may
	// trail the HTTP response by a beat.
	time.Sleep(500 * time.Millisecond)

	trees := trace.BuildTrees(lc.mergedEvents())
	if len(trees) == 0 {
		t.Fatal("no span trees assembled from the merged capture")
	}
	// Find the tree rooted at a gateway request span. (View formation may
	// have minted node-rooted trees of its own.)
	var tree *trace.Tree
	for _, tt := range trees {
		if len(tt.Roots) > 0 && tt.Roots[0].Phase == "gw-request" {
			tree = tt
			break
		}
	}
	if tree == nil {
		t.Fatalf("no tree rooted at gw-request among %d trees", len(trees))
	}
	if tree.Orphans != 0 {
		t.Errorf("complete capture has %d orphan spans", tree.Orphans)
	}

	phases := map[string]int{}
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		phases[s.Phase]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tree.Roots[0])
	for _, want := range []string{
		"gw-request",    // gateway
		"coord-txn",     // 2PC coordinator, whole transaction
		"coord-lock",    // lock acquisition round
		"coord-prepare", // prepare/vote round
		"coord-journal", // decision record to the durable journal
		"part-stage",    // participant staging
		"part-journal",  // staged writes to the durable journal
	} {
		if phases[want] == 0 {
			t.Errorf("span tree missing phase %q (got %v)", want, phases)
		}
	}

	// The same capture must survive a JSONL round trip (what vpload
	// -trace writes and vptrace spans reads) with the tree intact.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, lc.mergedEvents()); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reread := trace.BuildTrees(events)
	found := false
	for _, tt := range reread {
		if tt.Trace == tree.Trace && len(tt.Spans) == len(tree.Spans) {
			found = true
		}
	}
	if !found {
		t.Errorf("span tree did not survive the JSONL round trip")
	}

	// The critical path starts at the gateway and descends into 2PC.
	path := tree.CriticalPath()
	if len(path) < 2 || path[0].Span.Phase != "gw-request" {
		t.Errorf("critical path does not start at the gateway: %+v", path)
	}
}
