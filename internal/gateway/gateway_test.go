package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// fakeBackend lets tests script the cluster's behavior.
type fakeBackend struct {
	fn func(t wire.ClientTxn, preferred model.ProcID) (wire.ClientResult, model.ProcID, error)
}

func (f *fakeBackend) Submit(t wire.ClientTxn, _ model.TraceCtx, preferred model.ProcID, _ time.Time) (wire.ClientResult, model.ProcID, error) {
	return f.fn(t, preferred)
}

func doJSON(t *testing.T, client *http.Client, method, url, session string, body any) (*http.Response, TxnResponse) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.Header.Set(SessionHeader, session)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TxnResponse
	raw, _ := io.ReadAll(resp.Body)
	json.Unmarshal(raw, &tr) //nolint:errcheck // error bodies have another shape
	return resp, tr
}

func TestAdmissionShedsUnderOverload(t *testing.T) {
	release := make(chan struct{})
	backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
		<-release
		return wire.ClientResult{Tag: txn.Tag, Committed: true}, 1, nil
	}}
	reg := metrics.NewRegistry()
	g := newWithBackend(Config{Metrics: reg}, backend)
	defer g.Close()
	g.adm = newAdmission(1, 1, reg, nil, g.clock)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	incr := TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: "x", Delta: 1}}}
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", "", incr)
			codes <- resp.StatusCode
		}()
	}
	// Give the requests time to pile up against the blocked backend, then
	// let them through.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	close(codes)

	shed, served := 0, 0
	for c := range codes {
		switch c {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusOK:
			served++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	// 1 in flight + 1 queued admit eventually; the rest must be shed fast.
	if shed == 0 {
		t.Error("no requests shed at 1 in flight and 1 queued under 8-way load")
	}
	if served == 0 {
		t.Error("no requests served")
	}
	if got := reg.Get(metrics.CGwShed); got != int64(shed) {
		t.Errorf("%s = %d, want %d", metrics.CGwShed, got, shed)
	}
}

// TestReadRetriesUntilSessionFresh: a read-only request, GET /read or
// POST /txn, whose result predates the session's mark is retried until
// it is fresh.
func TestReadRetriesUntilSessionFresh(t *testing.T) {
	sess := &Session{}
	sess.Observe("x", ver(1, 1, 8)) // the session committed ctr 8
	for _, tc := range []struct {
		name, method, path string
		body               any
	}{
		{"GET /read", "GET", "/read?obj=x", nil},
		{"POST /txn", "POST", "/txn", TxnRequest{Ops: []TxnOp{{Kind: "read", Obj: "x"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The backend serves a stale version of x twice (as if from a
			// replica that missed the session's write), then the fresh one.
			var calls atomic.Int64
			backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
				n := calls.Add(1)
				v := ver(1, 1, 3) // pre-session
				val := model.Value(10)
				if n >= 3 {
					v = ver(1, 1, 8) // the session's own write
					val = 42
				}
				return wire.ClientResult{Tag: txn.Tag, Committed: true,
					Reads: []wire.ObjVal{{Obj: "x", Val: val, Ver: v}}}, 1, nil
			}}
			reg := metrics.NewRegistry()
			g := newWithBackend(Config{Metrics: reg}, backend)
			defer g.Close()
			srv := httptest.NewServer(g.Handler())
			defer srv.Close()

			resp, tr := doJSON(t, srv.Client(), tc.method, srv.URL+tc.path, sess.Token(), tc.body)
			if resp.StatusCode != http.StatusOK || !tr.Committed {
				t.Fatalf("read: status %d, %+v", resp.StatusCode, tr)
			}
			if len(tr.Reads) != 1 || tr.Reads[0].Value != 42 || tr.Reads[0].Version.Ctr != 8 {
				t.Errorf("served a stale read: %+v", tr.Reads)
			}
			if got := reg.Get(metrics.CGwStaleRetries); got != 2 {
				t.Errorf("%s = %d, want 2", metrics.CGwStaleRetries, got)
			}
			if calls.Load() != 3 {
				t.Errorf("backend calls = %d, want 3", calls.Load())
			}
		})
	}
}

// TestStaleResultWithWriteIsNotRetried: a committed transaction with a
// write is returned as it is, even when its read predates the session's
// mark, because a retried write may apply twice.
func TestStaleResultWithWriteIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
		calls.Add(1)
		return wire.ClientResult{Tag: txn.Tag, Committed: true,
			Reads:  []wire.ObjVal{{Obj: "x", Val: 10, Ver: ver(1, 1, 3)}},
			Writes: []wire.ObjVal{{Obj: "y", Val: 1, Ver: ver(1, 1, 9)}}}, 1, nil
	}}
	reg := metrics.NewRegistry()
	g := newWithBackend(Config{Metrics: reg}, backend)
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	sess := &Session{}
	sess.Observe("x", ver(1, 1, 8))
	resp, tr := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", sess.Token(),
		TxnRequest{Ops: []TxnOp{{Kind: "read", Obj: "x"}, {Kind: "write", Obj: "y", Value: 1}}})
	if resp.StatusCode != http.StatusOK || !tr.Committed {
		t.Fatalf("txn: status %d, %+v", resp.StatusCode, tr)
	}
	if len(tr.Reads) != 1 || tr.Reads[0].Version.Ctr != 3 {
		t.Errorf("reads = %+v, want the stale read as committed", tr.Reads)
	}
	if calls.Load() != 1 || reg.Get(metrics.CGwStaleRetries) != 0 {
		t.Errorf("backend calls = %d, %s = %d; want 1 and 0", calls.Load(),
			metrics.CGwStaleRetries, reg.Get(metrics.CGwStaleRetries))
	}
}

// TestBlindWriteGoesDirect: group commit takes only increments; a blind
// write is its own backend transaction.
func TestBlindWriteGoesDirect(t *testing.T) {
	backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
		return wire.ClientResult{Tag: txn.Tag, Committed: true,
			Writes: []wire.ObjVal{{Obj: "x", Val: 5, Ver: ver(1, 1, 1)}}}, 1, nil
	}}
	reg := metrics.NewRegistry()
	g := newWithBackend(Config{Metrics: reg}, backend)
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, tr := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", "",
		TxnRequest{Ops: []TxnOp{{Kind: "write", Obj: "x", Value: 5}}})
	if resp.StatusCode != http.StatusOK || !tr.Committed || len(tr.Writes) != 1 {
		t.Fatalf("write: status %d, %+v", resp.StatusCode, tr)
	}
	for name, want := range map[string]int64{
		metrics.CGwWriteTxns: 1, metrics.CGwBatchRounds: 0, metrics.CGwWriteCommitted: 1,
	} {
		if got := reg.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestBatchingCoalescesConcurrentIncrements(t *testing.T) {
	// A slow backend forces concurrent increments to pile into rounds;
	// every round must carry the summed delta of its constituents.
	var mu sync.Mutex
	total := int64(0)
	ctr := uint64(0)
	var txns []wire.ClientTxn
	backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		txns = append(txns, txn)
		for _, op := range txn.Ops {
			if op.Kind == wire.OpWrite {
				total += op.Const
			}
		}
		ctr++
		return wire.ClientResult{Tag: txn.Tag, Committed: true,
			Writes: []wire.ObjVal{{Obj: "x", Val: model.Value(total), Ver: ver(1, 1, ctr)}}}, 1, nil
	}}
	reg := metrics.NewRegistry()
	g := newWithBackend(Config{Metrics: reg}, backend)
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, tr := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", "",
				TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: "x", Delta: 1}}})
			if resp.StatusCode != http.StatusOK || !tr.Committed {
				t.Errorf("incr: status %d %+v", resp.StatusCode, tr)
			}
			if len(tr.Writes) != 1 {
				t.Errorf("constituent result missing its write: %+v", tr)
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if total != n {
		t.Errorf("backend saw summed delta %d, want %d", total, n)
	}
	if len(txns) >= n {
		t.Errorf("batching sent %d rounds for %d writes — no coalescing", len(txns), n)
	}
	if reg.Get(metrics.CGwWriteTxns) != int64(len(txns)) {
		t.Errorf("%s = %d, want %d", metrics.CGwWriteTxns, reg.Get(metrics.CGwWriteTxns), len(txns))
	}
	if reg.Get(metrics.CGwWriteCommitted) != n {
		t.Errorf("%s = %d, want %d", metrics.CGwWriteCommitted, reg.Get(metrics.CGwWriteCommitted), n)
	}
}

// TestShardLanesFlushIndependently pins the per-shard conveyor
// property: with one shard's round stuck in flight at the backend, a
// write to a DIFFERENT shard flushes immediately (idle lane), instead
// of waiting out the stuck round.
func TestShardLanesFlushIndependently(t *testing.T) {
	const bound = 250 * time.Millisecond
	blockA := make(chan struct{})
	var objA, objB model.ObjectID

	backend := &fakeBackend{fn: func(txn wire.ClientTxn, _ model.ProcID) (wire.ClientResult, model.ProcID, error) {
		var obj model.ObjectID
		var val model.Value
		for _, op := range txn.Ops {
			if op.Kind == wire.OpWrite {
				obj, val = op.Obj, model.Value(op.Const)
				break
			}
		}
		if obj == objA {
			<-blockA
		}
		return wire.ClientResult{Tag: txn.Tag, Committed: true,
			Writes: []wire.ObjVal{{Obj: obj, Val: val, Ver: ver(1, 1, 1)}}}, 1, nil
	}}
	g := newWithBackend(Config{
		Cluster: map[model.ProcID]string{1: "", 2: "", 3: ""},
		Shards:  4, ShardSeed: 7,
	}, backend)
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Two objects on different shards under the gateway's own map.
	objA = "k0"
	for i := 1; ; i++ {
		o := model.ObjectID(fmt.Sprintf("k%d", i))
		if g.shardOf(o) != g.shardOf(objA) {
			objB = o
			break
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // shard A's round flushes immediately (idle) and blocks in the backend
		defer wg.Done()
		resp, tr := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", "",
			TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: string(objA), Delta: 1}}})
		if resp.StatusCode != http.StatusOK || !tr.Committed {
			t.Errorf("objA incr: status %d %+v", resp.StatusCode, tr)
		}
	}()
	time.Sleep(50 * time.Millisecond) // let A's round reach the backend

	startB := time.Now()
	resp, tr := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", "",
		TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: string(objB), Delta: 7}}})
	tookB := time.Since(startB)
	if resp.StatusCode != http.StatusOK || !tr.Committed {
		t.Fatalf("objB incr: status %d %+v", resp.StatusCode, tr)
	}
	if tookB >= bound {
		t.Errorf("objB incr took %v with objA's round in flight — lane not independent", tookB)
	}

	close(blockA)
	wg.Wait()
}

// gatewayGoroutines returns the stacks, by goroutine header, of the
// goroutines running in a gateway method or in a node client.
func gatewayGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/gateway.(*") || strings.Contains(g, "internal/net.(*Client)") {
			head, _, _ := strings.Cut(g, " [")
			out[head] = g
		}
	}
	return out
}

// TestCloseWithIncrementInFlight: Close with an increment in flight at a
// node that never answers fails that increment at once, and leaves no
// goroutine of the gateway behind.
func TestCloseWithIncrementInFlight(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	arrived := make(chan net.Conn, 1)
	go func() { // accept, take the request's first bytes, never answer
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Read(make([]byte, 1)) //nolint:errcheck // any outcome means the frame was sent
		arrived <- c
	}()
	before := gatewayGoroutines()
	g := New(Config{Cluster: map[model.ProcID]string{1: l.Addr().String()}})
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.submit(wire.IncrementOps("x", 1), true, model.TraceCtx{}, 1, model.NoShard,
			time.Now().Add(requestDeadline))
		errc <- err
	}()
	select {
	case c := <-arrived:
		defer c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the increment never reached the node")
	}
	g.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("increment in flight at Close succeeded against a node that never answers")
		}
	case <-time.After(time.Second):
		t.Fatal("increment in flight at Close got no result within 1s")
	}
	deadline := time.Now().Add(time.Second)
	for {
		var left []string
		for head, stack := range gatewayGoroutines() {
			if _, ok := before[head]; !ok {
				left = append(left, stack)
			}
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d gateway goroutines left 1s after Close:\n%s", len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- live cluster tests ---

// bootCluster starts a 3-node virtual-partition cluster over real TCP
// with a shared one-copy history checker, returning the client address
// map, the trace recorders and a stop func. Traced, every node samples
// every transaction and records its spans into one recorder (so traces
// reach the journal); otherwise there is none.
func bootCluster(t *testing.T, traced bool, objs ...model.ObjectID) (map[model.ProcID]string, *onecopy.History, []*trace.Recorder, func()) {
	t.Helper()
	cfg := core.Config{Config: node.Config{Delta: 20 * time.Millisecond, LogCap: 256}}
	c, err := cluster.Start(cluster.Config{N: 3, Catalog: model.FullyReplicated(3, objs...), Core: cfg, Trace: traced})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*trace.Recorder
	if traced {
		recs = append(recs, c.Tracer())
	}
	return c.Addrs(), c.History(), recs, c.Stop
}

// TestGatewayReadYourWrites is the acceptance test: under concurrent
// load against a live 3-node cluster, a sessioned read NEVER returns a
// value older than the session's own last committed write.
func TestGatewayReadYourWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	addrs, hist, _, stop := bootCluster(t, false, "x", "y", "z")
	defer stop()

	g := New(Config{Cluster: addrs})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	objs := []model.ObjectID{"x", "y", "z"}
	const clients = 8
	const roundsPer = 10
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := "" // each client is one session
			obj := objs[c%len(objs)]
			hc := srv.Client()
			for i := 0; i < roundsPer; i++ {
				// Write: increment the object, remember the committed value
				// and version.
				resp, tr := doJSON(t, hc, "POST", srv.URL+"/txn", sess,
					TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: string(obj), Delta: 1}}})
				if resp.StatusCode != http.StatusOK || !tr.Committed || len(tr.Writes) != 1 {
					errCh <- fmt.Errorf("client %d write %d: status %d %+v", c, i, resp.StatusCode, tr)
					return
				}
				sess = resp.Header.Get(SessionHeader)
				wrote := tr.Writes[0]

				// Read it back under the session: must observe at least the
				// committed write.
				resp, tr = doJSON(t, hc, "GET", srv.URL+"/read?obj="+string(obj), sess, nil)
				if resp.StatusCode != http.StatusOK || !tr.Committed || len(tr.Reads) != 1 {
					errCh <- fmt.Errorf("client %d read %d: status %d %+v", c, i, resp.StatusCode, tr)
					return
				}
				sess = resp.Header.Get(SessionHeader)
				got := tr.Reads[0]
				wver := model.Version{Date: model.VPID{N: wrote.Version.VPN, P: wrote.Version.VPP}, Ctr: wrote.Version.Ctr}
				rver := model.Version{Date: model.VPID{N: got.Version.VPN, P: got.Version.VPP}, Ctr: got.Version.Ctr}
				if rver.Less(wver) {
					errCh <- fmt.Errorf("client %d: read of %s returned %v older than own write %v", c, obj, rver, wver)
					return
				}
				if got.Value < wrote.Value {
					errCh <- fmt.Errorf("client %d: read of %s saw %d < own committed %d", c, obj, got.Value, wrote.Value)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if r := onecopy.CheckGraph(hist); !r.OK {
		t.Errorf("history not one-copy serializable: %s", r.Reason)
	}
}

// TestGatewayBatchingAblation runs contended increments on one object
// against a live cluster and asserts the measurable claim of group
// commit: fewer 2PC rounds than logical writes, and no lost update.
func TestGatewayBatchingAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	run := func() (rounds, committed int64, sum int64) {
		addrs, _, _, stop := bootCluster(t, false, "x")
		defer stop()
		reg := metrics.NewRegistry()
		g := New(Config{Cluster: addrs, Metrics: reg})
		defer g.Close()
		srv := httptest.NewServer(g.Handler())
		defer srv.Close()

		const clients, per = 8, 6
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					resp, tr := doJSON(t, srv.Client(), "POST", srv.URL+"/txn", "",
						TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: "x", Delta: 1}}})
					if resp.StatusCode != http.StatusOK || !tr.Committed {
						t.Errorf("incr: status %d %+v", resp.StatusCode, tr)
						return
					}
				}
			}()
		}
		wg.Wait()

		// Read the final value through the gateway (retries handle any
		// in-flight view activity).
		resp, tr := doJSON(t, srv.Client(), "GET", srv.URL+"/read?obj=x", "", nil)
		if resp.StatusCode != http.StatusOK || len(tr.Reads) != 1 {
			t.Fatalf("final read: status %d %+v", resp.StatusCode, tr)
		}
		return reg.Get(metrics.CGwWriteTxns), reg.Get(metrics.CGwWriteCommitted), int64(tr.Reads[0].Value)
	}

	rounds, committed, sum := run()
	const want = 8 * 6
	if committed != want {
		t.Fatalf("committed writes: %d, want %d", committed, want)
	}
	if sum != want {
		t.Fatalf("lost updates: final value %d, want %d", sum, want)
	}
	if rounds >= want {
		t.Errorf("%d rounds for %d writes — no amortization", rounds, want)
	}
	t.Logf("2PC rounds per logical write: %.2f", float64(rounds)/float64(committed))
}

// TestTracedWriteProducesSpanTree is the end-to-end acceptance test for
// the causal tracing layer: one write through the gateway — HTTP, binary
// wire codec over real sockets, 2PC across three nodes, in-memory
// durable journal — must reassemble into a single span tree rooted at
// the gateway request, with the coordinator's 2PC phases and the
// journal spans beneath it.
func TestTracedWriteProducesSpanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test")
	}
	addrs, _, recs, stop := bootCluster(t, true, "o0", "o1")
	defer stop()
	gwRec := trace.New(trace.DefaultCap)
	gwRec.SetEnabled(true)
	recs = append(recs, gwRec)
	g := New(Config{Cluster: addrs, Tracer: gwRec, TraceSample: 1})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	// Cross-process span assembly needs nothing but the merged events:
	// contexts alone link them.
	merged := func() []trace.Event {
		var events []trace.Event
		for _, r := range recs {
			events = append(events, r.Events()...)
		}
		return events
	}

	// One increment through the gateway; retry while the view forms.
	body, _ := json.Marshal(TxnRequest{Ops: []TxnOp{{Kind: "incr", Obj: "o0", Delta: 1}}})
	deadline := time.Now().Add(15 * time.Second)
	var tr TxnResponse
	for {
		resp, err := srv.Client().Post(srv.URL+"/txn", "application/json", bytes.NewReader(body))
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

	required := []string{
		"gw-request",    // gateway
		"coord-txn",     // 2PC coordinator, whole transaction
		"coord-lock",    // lock acquisition
		"coord-prepare", // prepare/vote round
		"coord-journal", // decision record to the durable journal
		"part-stage",    // participant staging
		"part-journal",  // staged writes to the durable journal
	}
	phasesOf := func(root *trace.Span) map[string]int {
		phases := map[string]int{}
		var walk func(s *trace.Span)
		walk = func(s *trace.Span) {
			phases[s.Phase]++
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(root)
		return phases
	}
	// The decide round's spans close when the last ack lands, which may
	// trail the HTTP response: poll the capture until a tree rooted at a
	// gateway request (view formation mints node-rooted trees of its own)
	// carries every phase.
	var (
		tree   *trace.Tree
		seen   []map[string]int
		events []trace.Event
	)
	for tree == nil {
		events, seen = merged(), nil
		for _, tt := range trace.BuildTrees(events) {
			if len(tt.Roots) == 0 || tt.Roots[0].Phase != "gw-request" {
				continue
			}
			phases := phasesOf(tt.Roots[0])
			seen = append(seen, phases)
			complete := true
			for _, want := range required {
				complete = complete && phases[want] > 0
			}
			if complete {
				tree = tt
				break
			}
		}
		if tree == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no gw-request tree with every phase of %v; gw-request trees had %v", required, seen)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if tree.Orphans != 0 {
		t.Errorf("complete capture has %d orphan spans", tree.Orphans)
	}

	// The same capture must survive a JSONL round trip (what a traced
	// process writes and `vptrace spans` reads) with the tree intact.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	reread, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tt := range trace.BuildTrees(reread) {
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
