package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakeGateway serves POST /txn and GET /read over an in-memory counter
// table, correctly unless told to misbehave once.
type fakeGateway struct {
	mu     sync.Mutex
	values map[string]int64
	vers   map[string]version
	ctr    uint64

	dropIncrOn  string // acknowledge one increment of this object without applying it
	staleReadOn string // serve one read of this object at a version before its last write
	halfMoveOn  string // apply only the credit side of one transfer into this object, never the debit
}

func (g *fakeGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var resp txnResponse
	resp.Committed = true
	if r.URL.Path == "/read" {
		obj := r.URL.Query().Get("obj")
		res := objResult{Obj: obj, Value: g.values[obj], Version: g.vers[obj]}
		if obj == g.staleReadOn && r.Header.Get(sessionHeader) != "" && g.vers[obj].Ctr > 0 {
			g.staleReadOn = ""
			res.Version.Ctr--
			res.Value--
		}
		resp.Reads = []objResult{res}
	} else {
		var req struct {
			Ops []struct {
				Obj   string `json:"obj"`
				Delta int64  `json:"delta"`
			} `json:"ops"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		transfer := len(req.Ops) == 2
		for _, op := range req.Ops {
			g.ctr++
			ver := version{VPN: 1, VPP: 1, Ctr: g.ctr}
			switch {
			case !transfer && op.Obj == g.dropIncrOn:
				g.dropIncrOn = ""
			case transfer && op.Delta < 0 && req.Ops[1].Obj == g.halfMoveOn:
				g.halfMoveOn = ""
			default:
				g.values[op.Obj] += op.Delta
				g.vers[op.Obj] = ver
			}
			resp.Writes = append(resp.Writes, objResult{Obj: op.Obj, Value: g.values[op.Obj], Version: ver})
		}
	}
	w.Header().Set(sessionHeader, "s")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // test server
}

// replay drives the real client and verifier over a fake gateway: one
// client sends the stream in order, then every object is read back.
func replay(t *testing.T, g *fakeGateway, stream []request, objects int) []string {
	t.Helper()
	g.values, g.vers = map[string]int64{}, map[string]version{}
	srv := httptest.NewServer(g)
	defer srv.Close()
	names := objectNames(objects)
	c := newClient(0, srv.URL, stream, names)
	defer c.close()
	for _, r := range stream {
		c.ledger.record(r, c.do(r))
	}
	violations, _ := verify(srv.URL, verifyInput{names: names, ledger: c.ledger, stale: c.stale})
	return violations
}

func TestVerifierHasTeeth(t *testing.T) {
	stream := []request{
		{Kind: opIncr, A: 1}, {Kind: opIncr, A: 2}, {Kind: opRead, A: 2},
		{Kind: opTransfer, A: 1, B: 3}, {Kind: opIncr, A: 2}, {Kind: opRead, A: 2}, {Kind: opRead, A: 3},
	}
	if v := replay(t, &fakeGateway{}, stream, 4); len(v) != 0 {
		t.Fatalf("a correct gateway was flagged: %v", v)
	}
	for _, tc := range []struct {
		name string
		gw   *fakeGateway
		want []string // every string must appear in some violation
	}{
		{"drops an acknowledged increment", &fakeGateway{dropIncrOn: "o2"},
			[]string{"acknowledged write lost on o2"}},
		{"serves a stale sessioned read", &fakeGateway{staleReadOn: "o2"},
			[]string{"stale sessioned read of o2"}},
		{"breaks conservation", &fakeGateway{halfMoveOn: "o3"},
			[]string{"unacknowledged write on o1", "conservation broken"}},
	} {
		got := strings.Join(replay(t, tc.gw, stream, 4), "\n")
		if got == "" {
			t.Errorf("gateway that %s: run judged valid", tc.name)
		}
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("gateway that %s: want a violation containing %q, got:\n%s", tc.name, w, got)
			}
		}
	}
}

// TestIndeterminateRequestsWidenOnlyTheirSide checks the ledger's
// bounds: a timed-out increment may or may not have been applied; a
// committed one must have been, also on a faulted run, where a value
// above the bound is a counted duplicate and not a violation.
func TestIndeterminateRequestsWidenOnlyTheirSide(t *testing.T) {
	l := newLedger(2)
	l.record(request{Kind: opIncr, A: 0}, committed)
	l.record(request{Kind: opIncr, A: 0}, indeterminate)
	l.record(request{Kind: opIncr, A: 0}, refused)
	l.record(request{Kind: opTransfer, A: 0, B: 1}, indeterminate)
	if l.lo[0] != 0 || l.hi[0] != 2 || l.lo[1] != 0 || l.hi[1] != 1 || l.indet != 2 {
		t.Fatalf("bounds o0=[%d,%d] o1=[%d,%d] indet=%d, want [0,2] [0,1] 2", l.lo[0], l.hi[0], l.lo[1], l.hi[1], l.indet)
	}

	g := &fakeGateway{values: map[string]int64{"o0": 3, "o1": 0}, vers: map[string]version{}}
	srv := httptest.NewServer(g)
	defer srv.Close()
	names := objectNames(2)
	if v, _ := verify(srv.URL, verifyInput{names: names, ledger: l}); len(v) == 0 {
		t.Error("value 3 above the bound [0,2] passed on a run without faults")
	}
	v, dups := verify(srv.URL, verifyInput{names: names, ledger: l, faulted: true})
	if len(v) != 0 || dups != 1 {
		t.Errorf("faulted run: violations %v dups %d, want none and 1", v, dups)
	}
	g.values["o0"] = -1
	if v, _ := verify(srv.URL, verifyInput{names: names, ledger: l, faulted: true}); len(v) == 0 {
		t.Error("a lost acknowledged write passed on a faulted run")
	}
}
