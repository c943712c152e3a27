package gateway

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/debughttp"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// SessionHeader carries the opaque session token in both directions.
const SessionHeader = "X-VP-Session"

var errGatewayClosed = errors.New("gateway: closed")

const (
	// maxInflight bounds concurrently served requests, maxQueue how many
	// more may wait for a slot, at most queueWait. Beyond them, requests
	// are shed with 503.
	maxInflight = 256
	maxQueue    = 4 * maxInflight
	queueWait   = 250 * time.Millisecond
	// perTry is the per-node attempt timeout, requestDeadline the
	// end-to-end budget of one client request.
	perTry          = 500 * time.Millisecond
	requestDeadline = 5 * time.Second
	// Every increment goes through group commit (see batcher): an
	// entry queues at most batchWindow, a lane at most batchMax entries.
	batchWindow = 2 * time.Millisecond
	batchMax    = 64
)

// Config parameterizes a gateway instance.
type Config struct {
	// Cluster maps node ids to their client-facing TCP addresses.
	Cluster map[model.ProcID]string

	// Shards, when > 1, enables shard-aware routing: submissions prefer
	// a node that hosts the target object's shard, and increments
	// coalesce in per-shard conveyor lanes so every group-commit round
	// is single-shard (no cross-shard 2PC on the batched path).
	// ShardSeed and ShardReplicas must match the cluster's own -shards
	// configuration — the placement map is a pure function of them plus
	// the node set, so the gateway derives it locally.
	Shards        int
	ShardSeed     int64
	ShardReplicas int

	// TraceSample enables causal tracing of client requests: 1-in-N
	// requests get a root trace context that propagates through every
	// wire frame the request causes. 0 (the default) disables gateway
	// minting entirely; sampled-out requests carry a zero context and
	// pay no allocation.
	TraceSample int

	// Metrics and Tracer receive the gateway's counters and events;
	// both default to fresh/disabled instances when nil.
	Metrics *metrics.Registry
	Tracer  *trace.Recorder
}

// tagSource allocates gateway-unique transaction tags. Tags only need
// to be unique among in-flight submissions per node connection; a
// monotone counter is unique outright.
type tagSource struct{ n atomic.Uint64 }

func (t *tagSource) next() uint64 { return t.n.Add(1) }

// spanSource allocates gateway-minted span ids. The 0xFF high byte
// namespaces them away from node-minted ids (which carry the processor
// id there).
type spanSource struct{ n atomic.Uint32 }

func (s *spanSource) next() uint32 { return 0xFF<<24 | s.n.Add(1)&0xFFFFFF }

// Gateway is one client-gateway instance: an http.Handler plus the
// machinery behind it. Create with New, serve via Handler or ListenAndServe,
// release with Close.
type Gateway struct {
	cfg     Config
	pool    *pool
	backend submitter // the pool, or a test fake
	batch   *batcher
	adm     *admission
	tags    *tagSource
	spans   *spanSource
	trCtr   atomic.Uint64 // request counter for 1-in-N trace sampling
	smap    *shard.Map    // nil when unsharded
	shardRR atomic.Uint64 // rotation cursor over a shard's members
	reg     *metrics.Registry
	tr      *trace.Recorder
	start   time.Time
	mux     *http.ServeMux
}

// shardOf maps an object to its shard under the gateway's copy of the
// placement map; NoShard when the deployment is unsharded.
func (g *Gateway) shardOf(obj model.ObjectID) model.ShardID {
	if g.smap == nil {
		return model.NoShard
	}
	return g.smap.ShardOf(obj)
}

// routeShard picks a submission's preferred node: the session's own
// node when it hosts the shard (affinity preserved), otherwise one of
// the shard's members by rotation. Routing to a member avoids a
// guaranteed first-attempt denial from a node that holds no copy of
// the shard.
func (g *Gateway) routeShard(s model.ShardID, sess model.ProcID) model.ProcID {
	if g.smap == nil || s == model.NoShard {
		return sess
	}
	if g.smap.Hosts(sess, s) {
		return sess
	}
	mem := g.smap.MemberList(s)
	if len(mem) == 0 {
		return sess
	}
	return mem[int(g.shardRR.Add(1))%len(mem)]
}

// laneDepth is how many processors can coordinate a conveyor lane's
// rounds: the shard's members when sharded, the whole cluster otherwise.
func (g *Gateway) laneDepth(s model.ShardID) int {
	if g.smap != nil && s != model.NoShard {
		return len(g.smap.MemberList(s))
	}
	return len(g.cfg.Cluster)
}

// mintRoot returns a fresh root trace context when this request is
// sampled in, and the zero context (no allocation, nothing recorded)
// otherwise.
func (g *Gateway) mintRoot() model.TraceCtx {
	if g.cfg.TraceSample <= 0 || !g.tr.Enabled() {
		return model.TraceCtx{}
	}
	n := g.trCtr.Add(1)
	if n%uint64(g.cfg.TraceSample) != 0 {
		return model.TraceCtx{}
	}
	// Golden-ratio scramble keeps ids well spread; |1 keeps them nonzero.
	return model.TraceCtx{Trace: n*0x9E3779B97F4A7C15 | 1, Span: g.spans.next()}
}

// New builds a gateway over a live cluster.
func New(cfg Config) *Gateway {
	g := newWithBackend(cfg, nil)
	g.pool = newPool(cfg.Cluster, g.reg)
	g.backend = g.pool
	return g
}

// newWithBackend wires everything except the pool, letting tests
// substitute the backend.
func newWithBackend(cfg Config, backend submitter) *Gateway {
	g := &Gateway{
		cfg:     cfg,
		backend: backend,
		tags:    &tagSource{},
		spans:   &spanSource{},
		reg:     cmp.Or(cfg.Metrics, metrics.NewRegistry()),
		tr:      cfg.Tracer,
		start:   time.Now(),
	}
	g.adm = newAdmission(maxInflight, maxQueue, g.reg, g.tr, g.clock)
	if cfg.Shards > 1 && len(cfg.Cluster) > 0 {
		procs := make([]model.ProcID, 0, len(cfg.Cluster))
		for id := range cfg.Cluster {
			procs = append(procs, id)
		}
		m, err := shard.NewMap(shard.Config{
			Shards: cfg.Shards, Replicas: cfg.ShardReplicas, Seed: cfg.ShardSeed, Procs: procs,
		})
		if err != nil {
			panic(fmt.Sprintf("gateway: shard map: %v", err)) // unreachable: inputs validated above
		}
		g.smap = m
	}
	g.batch = newBatcher(g, batchWindow, batchMax)
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /txn", g.handleTxn)
	g.mux.HandleFunc("GET /read", g.handleRead)
	g.mux.HandleFunc("GET /gw/stats", g.handleStats)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /spans", debughttp.SpansHandler(g.tr))
	return g
}

// clock is the trace timestamp: wall time since gateway start.
func (g *Gateway) clock() time.Duration { return time.Since(g.start) }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve listens on addr and serves the gateway API until the returned
// server is closed; it returns once the listener is bound.
func (g *Gateway) Serve(addr string) (*http.Server, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: g.mux}
	go srv.Serve(l) //nolint:errcheck // ErrServerClosed on shutdown
	return srv, l.Addr().String(), nil
}

// Close fails the writes still queued with errGatewayClosed and tears
// down the pool, which fails what is in flight there.
func (g *Gateway) Close() {
	g.batch.close()
	if g.pool != nil {
		g.pool.close()
	}
}

// Metrics exposes the gateway's registry (shared with the config's).
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// --- request/response shapes ---

// TxnRequest is the POST /txn body: a transaction as a list of steps.
// Op kinds: "read" (obj), "write" (obj, value), "incr" (obj, delta —
// sugar for read-modify-write).
type TxnRequest struct {
	Ops []TxnOp `json:"ops"`
}

// TxnOp is one step of a TxnRequest.
type TxnOp struct {
	Kind  string `json:"kind"`
	Obj   string `json:"obj"`
	Value int64  `json:"value,omitempty"`
	Delta int64  `json:"delta,omitempty"`
}

// ObjResult reports one object's value and the version that carried it.
type ObjResult struct {
	Obj     string `json:"obj"`
	Value   int64  `json:"value"`
	Version VerRef `json:"version"`
}

// VerRef is the wire form of a version's ordering fields.
type VerRef struct {
	VPN uint64       `json:"vpn"`
	VPP model.ProcID `json:"vpp"`
	Ctr uint64       `json:"ctr"`
}

func verRef(v model.Version) VerRef {
	return VerRef{VPN: v.Date.N, VPP: v.Date.P, Ctr: v.Ctr}
}

// TxnResponse is the POST /txn and GET /read response body. The
// refreshed session token also rides the X-VP-Session header.
type TxnResponse struct {
	Committed bool        `json:"committed"`
	Denied    bool        `json:"denied,omitempty"`
	Reason    string      `json:"reason,omitempty"`
	Reads     []ObjResult `json:"reads,omitempty"`
	Writes    []ObjResult `json:"writes,omitempty"`
	Session   string      `json:"session,omitempty"`
}

// toOps decodes a POST /txn body into the transaction's ops.
func toOps(body io.Reader) ([]wire.Op, error) {
	var req TxnRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	var ops []wire.Op
	for _, o := range req.Ops {
		if o.Obj == "" {
			return nil, fmt.Errorf("op %q: missing obj", o.Kind)
		}
		obj := model.ObjectID(o.Obj)
		switch o.Kind {
		case "read":
			ops = append(ops, wire.ReadOp(obj))
		case "write":
			ops = append(ops, wire.WriteOp(obj, o.Value))
		case "incr":
			ops = append(ops, wire.IncrementOps(obj, o.Delta)...)
		default:
			return nil, fmt.Errorf("unknown op kind %q", o.Kind)
		}
	}
	if len(ops) == 0 {
		return nil, errors.New("empty transaction")
	}
	return ops, nil
}

// increment reports the object and delta of ops that are exactly one
// "incr" op: no other request yields a write of a read value.
func increment(ops []wire.Op) (model.ObjectID, int64, bool) {
	if len(ops) == 2 && ops[1].UseSrc && ops[1].Src == ops[0].Obj && ops[1].Obj == ops[0].Obj {
		return ops[1].Obj, ops[1].Const, true
	}
	return "", 0, false
}

// --- handlers ---

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func (g *Gateway) handleTxn(w http.ResponseWriter, r *http.Request) {
	ops, err := toOps(r.Body)
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.serve(w, r, ops)
}

func (g *Gateway) handleRead(w http.ResponseWriter, r *http.Request) {
	obj := model.ObjectID(r.URL.Query().Get("obj"))
	if obj == "" {
		httpErr(w, http.StatusBadRequest, "missing ?obj=")
		return
	}
	g.serve(w, r, []wire.Op{wire.ReadOp(obj)})
}

// serve runs one client request to its response: admission, the
// session, routing, the submission and the gw-request span around all
// of it. A committed read-only transaction carries the session's
// freshness guarantee: a result with a read older than the session's
// mark for its object is retried — rotating away from the stale node —
// rather than returned, so a session never observes state older than
// its own last committed write (or its own previous reads). A
// transaction with a write is never retried: a retried write may apply
// twice.
func (g *Gateway) serve(w http.ResponseWriter, r *http.Request, ops []wire.Op) {
	release := g.adm.acquire(queueWait)
	if release == nil {
		w.Header().Set("Retry-After", "1")
		httpErr(w, http.StatusServiceUnavailable, "gateway overloaded, retry later")
		return
	}
	defer release()
	began := time.Now()

	sess, err := ParseSession(r.Header.Get(SessionHeader))
	if err != nil {
		httpErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hasWrite := slices.ContainsFunc(ops, func(op wire.Op) bool { return op.Kind == wire.OpWrite })
	deadline := began.Add(requestDeadline)
	sh := g.shardOf(ops[0].Obj)
	preferred := g.routeShard(sh, sess.Node)
	rctx := g.mintRoot()
	beganClk := g.clock()
	var res wire.ClientResult
	defer func() {
		if !rctx.IsZero() {
			// One gw-request span per request, spanning every retry;
			// errors still close it.
			g.tr.Span(model.NoProc, rctx, "gw-request", beganClk, g.clock(), res.Txn)
		}
	}()
	res, servedBy, err := g.submit(ops, hasWrite, rctx, preferred, sh, deadline)
	for attempt := 1; err == nil && res.Committed && !hasWrite; attempt++ {
		stale := sess.StaleReads(res)
		if len(stale) == 0 {
			break
		}
		g.reg.Inc(metrics.CGwStaleRetries, 1)
		if g.tr.Enabled() {
			g.tr.Record(trace.Event{At: g.clock(), Kind: trace.EvGwStale, Obj: stale[0], Aux: int64(attempt)})
		}
		if !time.Now().Before(deadline) {
			g.reg.Inc(metrics.CGwFailed, 1)
			httpErr(w, http.StatusGatewayTimeout,
				"read of %q could not reach session freshness before the deadline", stale[0])
			return
		}
		// Rotate off the node that served the stale copy; the pool's
		// rotation picks a different one next.
		res, servedBy, err = g.submit(ops, hasWrite, rctx, model.NoProc, sh, deadline)
	}
	if err != nil {
		g.reg.Inc(metrics.CGwFailed, 1)
		httpErr(w, http.StatusBadGateway, "%v", err)
		return
	}
	if res.Committed {
		sess.ObserveResult(servedBy, res)
		if hasWrite {
			g.reg.Inc(metrics.CGwWriteCommitted, 1)
		} else {
			g.reg.Inc(metrics.CGwReadCommitted, 1)
		}
	} else {
		g.reg.Inc(metrics.CGwFailed, 1)
	}
	g.reg.ObserveDuration(metrics.SGwLatency, time.Since(began))
	g.writeResult(w, res, sess)
}

// submit sends one attempt of a request's transaction: an increment to
// group commit, everything else straight to the backend under a fresh
// tag.
func (g *Gateway) submit(ops []wire.Op, hasWrite bool, rctx model.TraceCtx, preferred model.ProcID,
	sh model.ShardID, deadline time.Time) (wire.ClientResult, model.ProcID, error) {
	if obj, delta, ok := increment(ops); ok {
		return g.batch.submit(obj, delta, rctx, preferred, sh)
	}
	if hasWrite {
		g.reg.Inc(metrics.CGwWriteTxns, 1)
	}
	return g.backend.Submit(wire.ClientTxn{Tag: g.tags.next(), Ops: ops}, rctx, preferred, deadline)
}

func (g *Gateway) writeResult(w http.ResponseWriter, res wire.ClientResult, sess *Session) {
	resp := TxnResponse{
		Committed: res.Committed,
		Denied:    res.Denied,
		Reason:    res.Reason,
		Session:   sess.Token(),
	}
	for _, r := range res.Reads {
		resp.Reads = append(resp.Reads, ObjResult{Obj: string(r.Obj), Value: int64(r.Val), Version: verRef(r.Ver)})
	}
	for _, wr := range res.Writes {
		resp.Writes = append(resp.Writes, ObjResult{Obj: string(wr.Obj), Value: int64(wr.Val), Version: verRef(wr.Ver)})
	}
	w.Header().Set(SessionHeader, resp.Session)
	w.Header().Set("Content-Type", "application/json")
	if !res.Committed {
		w.WriteHeader(http.StatusConflict)
	}
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// Stats is the GET /gw/stats body: the counters and latency summary the
// load generator scrapes.
type Stats struct {
	Counters map[string]int64 `json:"counters"`
	Latency  metrics.Summary  `json:"latency_ms"`
	Batch    metrics.Summary  `json:"batch_size"`
	Inflight int              `json:"inflight"`
	Shards   int              `json:"shards,omitempty"`
	Pool     []poolStatus     `json:"pool,omitempty"`
	UptimeMS int64            `json:"uptime_ms"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := Stats{
		Counters: g.reg.Counters(),
		Latency:  g.reg.Samples(metrics.SGwLatency),
		Batch:    g.reg.Samples(metrics.SGwBatchSize),
		Inflight: g.adm.inflight(),
		UptimeMS: time.Since(g.start).Milliseconds(),
	}
	if g.smap != nil {
		st.Shards = g.smap.NumShards()
	}
	if g.pool != nil {
		st.Pool = g.pool.status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"ok":       true,
		"inflight": g.adm.inflight(),
	})
}
