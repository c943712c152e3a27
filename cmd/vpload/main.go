// Command vpload is the closed-loop load generator for the client
// gateway: N session-holding clients issue a deterministic read/write
// mix (internal/workload: seeded, optionally Zipf-skewed) against a
// gateway's HTTP API, each client submitting its next request as soon
// as the previous one answers. It reports committed throughput and
// latency percentiles as JSON and — because every client remembers its
// own committed writes — verifies on the fly that no sessioned read
// ever returned a value older than the session's own last committed
// write.
//
// Modes:
//
//	vpload -addr http://localhost:8080           # drive an external gateway
//	vpload -local 3                              # boot an in-process 3-node TCP cluster + gateway
//	vpload -local 3 -smoke                       # short burst; exit non-zero on zero
//	                                             # throughput or any consistency violation
//	vpload -local 3 -compare -out BENCH_gateway.json
//	                                             # run the same load with batching off and
//	                                             # on; write the ablation comparison
//	vpload -local 5 -shards 4 -shard-replicas 3 -shard-compare -out BENCH_shard.json
//	                                             # run the same load unsharded and with 4
//	                                             # per-shard virtual partitions; write the
//	                                             # scale-out ablation with per-shard stats
//	vpload -local 3 -trace trace.jsonl           # causally trace sampled requests across the
//	                                             # gateway and every node; write the merged
//	                                             # capture for `vptrace spans`
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/workload"
)

// options is the parsed command line, separated from main so the
// harness is drivable from tests without forking.
type options struct {
	addr         string
	local        int
	clients      int
	rate         float64
	duration     time.Duration
	ramp         time.Duration
	readFraction float64
	objects      int
	zipf         float64
	seed         int64
	batch        bool
	batchWindow  time.Duration
	smoke        bool
	compare      bool
	out          string
	delta        time.Duration
	traceOut     string
	traceSample  int

	shards        int
	shardSeed     int64
	shardReplicas int
	spread        int
	shardCompare  bool
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpload", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "", "gateway base URL (e.g. http://localhost:8080)")
		local        = fs.Int("local", 0, "boot an in-process cluster of this many nodes plus a gateway instead of -addr")
		clients      = fs.Int("clients", 8, "concurrent closed-loop clients (each is one session)")
		rate         = fs.Float64("rate", 0, "target offered load in requests/sec across all clients (0 = closed loop, as fast as responses return); latency is then measured from the scheduled send time, so an overloaded target shows its true queueing delay instead of coordinated omission")
		duration     = fs.Duration("duration", 5*time.Second, "measured load duration")
		ramp         = fs.Duration("ramp", 0, "stagger client start times across this window")
		readFraction = fs.Float64("read-fraction", 0.5, "fraction of requests that are reads")
		objects      = fs.Int("objects", 4, "number of logical objects")
		zipf         = fs.Float64("zipf", 0, "object popularity skew (0 = uniform)")
		seed         = fs.Int64("seed", 1, "workload seed; runs are reproducible per client")
		batch        = fs.Bool("batch", true, "-local only: enable group-commit batching")
		batchWindow  = fs.Duration("batch-window", 2*time.Millisecond, "-local only: batching window")
		smoke        = fs.Bool("smoke", false, "assert non-zero committed throughput and zero violations; exit 1 otherwise")
		compare      = fs.Bool("compare", false, "-local only: run batching off then on and report both")
		out          = fs.String("out", "", "write the JSON report here instead of stdout")
		delta        = fs.Duration("delta", 20*time.Millisecond, "-local only: cluster message delay bound δ")
		traceOut     = fs.String("trace", "", "-local only: record causal traces on the gateway and every node; write the merged JSONL capture here on exit (feed to `vptrace spans`)")
		traceSample  = fs.Int("trace-sample", 0, "-local only: trace 1-in-N gateway requests (0 with -trace means every request)")
		shards       = fs.Int("shards", 1, "shard the object namespace this many ways: -local boots a sharded cluster+gateway; against -addr it must match the target's sharding and enables the per-shard report")
		shardSeed    = fs.Int64("shard-seed", 1, "shard placement seed (must match the target cluster)")
		shardRep     = fs.Int("shard-replicas", 0, "-local only: copies per shard (0 = every node hosts every shard)")
		spread       = fs.Int("spread", 0, "keyspace spread: each client confines its keys to this many shards, starting from its home shard (0 = uniform over the whole keyspace); 1 makes every transaction single-shard")
		shardCompare = fs.Bool("shard-compare", false, "-local only: run the same load unsharded then with -shards and report both (BENCH_shard.json)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (*addr == "") == (*local == 0) {
		return nil, fmt.Errorf("exactly one of -addr or -local is required")
	}
	if *compare && *local == 0 {
		return nil, fmt.Errorf("-compare needs -local (it reboots the cluster between runs)")
	}
	if (*traceOut != "" || *traceSample != 0) && *local == 0 {
		return nil, fmt.Errorf("-trace/-trace-sample need -local (an external gateway's recorder is not reachable)")
	}
	if *traceOut != "" && *traceSample == 0 {
		*traceSample = 1
	}
	if *local != 0 && *local < 3 {
		return nil, fmt.Errorf("-local must be >= 3 (a majority must survive nothing here, but the protocol wants peers)")
	}
	if *clients < 1 || *objects < 1 {
		return nil, fmt.Errorf("-clients and -objects must be positive")
	}
	if *readFraction < 0 || *readFraction > 1 {
		return nil, fmt.Errorf("-read-fraction must be in [0,1]")
	}
	if *rate < 0 {
		return nil, fmt.Errorf("-rate must be >= 0")
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards must be >= 1")
	}
	if *spread < 0 || *spread > *shards {
		return nil, fmt.Errorf("-spread must be in [0, -shards]")
	}
	if *shardCompare && *local == 0 {
		return nil, fmt.Errorf("-shard-compare needs -local (it reboots the cluster between runs)")
	}
	if *shardCompare && *shards < 2 {
		return nil, fmt.Errorf("-shard-compare needs -shards >= 2 for the sharded side")
	}
	if *shardCompare && *compare {
		return nil, fmt.Errorf("-shard-compare does not combine with -compare")
	}
	if *addr != "" && !strings.Contains(*addr, "://") {
		// Accept bare host:port; without a scheme http.Client fails every
		// request instantly and the whole run reads as "failed".
		*addr = "http://" + *addr
	}
	return &options{
		addr: *addr, local: *local, clients: *clients, rate: *rate,
		duration: *duration, ramp: *ramp,
		readFraction: *readFraction, objects: *objects, zipf: *zipf, seed: *seed,
		batch: *batch, batchWindow: *batchWindow,
		smoke: *smoke, compare: *compare,
		out: *out, delta: *delta,
		traceOut: *traceOut, traceSample: *traceSample,
		shards: *shards, shardSeed: *shardSeed, shardReplicas: *shardRep,
		spread: *spread, shardCompare: *shardCompare,
	}, nil
}

// report is the JSON output of one load run.
type report struct {
	Config struct {
		Clients      int     `json:"clients"`
		RateTPS      float64 `json:"rate_tps,omitempty"`
		DurationMS   int64   `json:"duration_ms"`
		ReadFraction float64 `json:"read_fraction"`
		Objects      int     `json:"objects"`
		Zipf         float64 `json:"zipf"`
		Seed         int64   `json:"seed"`
		Batching     bool    `json:"batching"`
		Shards       int     `json:"shards,omitempty"`
		Spread       int     `json:"spread,omitempty"`
	} `json:"config"`
	ElapsedMS     int64   `json:"elapsed_ms"`
	Committed     int64   `json:"committed"`
	CommittedTPS  float64 `json:"committed_tps"`
	Reads         int64   `json:"reads"`
	Writes        int64   `json:"writes"`
	Failed        int64   `json:"failed"`
	Shed          int64   `json:"shed"`
	Violations    int64   `json:"violations"`
	LatencyMS     latency `json:"latency_ms"`
	ReadLatencyMS latency `json:"read_latency_ms"`

	// PerShard breaks committed throughput and latency down by owning
	// shard (requests classified client-side by the same pure placement
	// hash the cluster uses). Present only with -shards > 1.
	PerShard map[string]*shardSide `json:"per_shard,omitempty"`

	// Gateway-side ablation numbers, scraped from /gw/stats.
	Gateway *gwSide `json:"gateway,omitempty"`
}

// shardSide is the per-shard slice of a run: how much of the committed
// load landed on the shard and what it cost.
type shardSide struct {
	Committed    int64   `json:"committed"`
	CommittedTPS float64 `json:"committed_tps"`
	LatencyMS    latency `json:"latency_ms"`
	// BatchRounds is the gateway's group-commit round count for this
	// shard's conveyor lane (0 when batching is off or the target does
	// not expose stats).
	BatchRounds int64 `json:"batch_rounds,omitempty"`
}

type latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func toLatency(s metrics.Summary) latency {
	return latency{Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
}

// gwSide summarizes the gateway counters that quantify batching: how
// many backend 2PC rounds carried how many logical writes.
type gwSide struct {
	WriteTxns      int64   `json:"backend_write_txns"`
	WriteCommitted int64   `json:"write_committed"`
	RoundsPerWrite float64 `json:"rounds_per_write"`
	BatchRounds    int64   `json:"batch_rounds"`
	MeanBatchSize  float64 `json:"mean_batch_size"`
	StaleRetries   int64   `json:"session_stale_retries"`
	Shed           int64   `json:"shed"`
}

// client is one closed-loop session: it tracks its own committed write
// versions so read-your-writes violations are detected independently of
// the gateway's own session logic.
type client struct {
	id      int
	url     string
	hc      *http.Client
	gen     *workload.Generator
	session string
	marks   map[string]gateway.VerRef
	// shardOf classifies an object to its owning shard for the per-shard
	// report; nil when the run is unsharded.
	shardOf func(model.ObjectID) model.ShardID
}

func (c *client) versionLess(a, b gateway.VerRef) bool {
	av := model.Version{Date: model.VPID{N: a.VPN, P: a.VPP}, Ctr: a.Ctr}
	bv := model.Version{Date: model.VPID{N: b.VPN, P: b.VPP}, Ctr: b.Ctr}
	return av.Less(bv)
}

// step issues one request and classifies the outcome. sched is the
// request's scheduled send time under paced (-rate) load: latency is
// measured from it, so queueing delay an overloaded target imposes on
// the schedule counts against it (no coordinated omission). In closed
// loop sched is zero and latency is measured from the actual send.
func (c *client) step(res *runStats, reg *metrics.Registry, sched time.Time) {
	t := c.gen.Next()
	var (
		method, path string
		body         io.Reader
	)
	if t.ReadOnly {
		method = "GET"
		path = "/read?obj=" + string(t.Request.Ops[0].Obj)
	} else {
		// The generator's non-read transactions are single-object
		// increments (TransferFraction 0).
		req := gateway.TxnRequest{Ops: []gateway.TxnOp{
			{Kind: "incr", Obj: string(t.Request.Ops[0].Obj), Delta: 1},
		}}
		raw, _ := json.Marshal(req) //nolint:errcheck // fixed shape
		method, path, body = "POST", "/txn", bytes.NewReader(raw)
	}
	httpReq, err := http.NewRequest(method, c.url+path, body)
	if err != nil {
		res.add(func(s *runStats) { s.failed++ })
		return
	}
	if c.session != "" {
		httpReq.Header.Set(gateway.SessionHeader, c.session)
	}
	began := time.Now()
	if !sched.IsZero() {
		began = sched
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		res.add(func(s *runStats) { s.failed++ })
		return
	}
	rawBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(began)

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		res.add(func(s *runStats) { s.shed++ })
		return
	default:
		res.add(func(s *runStats) { s.failed++ })
		return
	}
	var tr gateway.TxnResponse
	if err := json.Unmarshal(rawBody, &tr); err != nil || !tr.Committed {
		res.add(func(s *runStats) { s.failed++ })
		return
	}
	if tok := resp.Header.Get(gateway.SessionHeader); tok != "" {
		c.session = tok
	}

	reg.ObserveDuration("load.latency", elapsed)
	var sh model.ShardID
	if c.shardOf != nil {
		sh = c.shardOf(t.Request.Ops[0].Obj)
		reg.ObserveDuration(fmt.Sprintf("load.latency.s%d", sh), elapsed)
	}
	violation := false
	if t.ReadOnly {
		reg.ObserveDuration("load.read.latency", elapsed)
		// The independent read-your-writes check: the returned version
		// must not precede this client's own committed write.
		for _, r := range tr.Reads {
			if mark, ok := c.marks[r.Obj]; ok && c.versionLess(r.Version, mark) {
				violation = true
			}
		}
	} else {
		for _, w := range tr.Writes {
			if mark, ok := c.marks[w.Obj]; !ok || c.versionLess(mark, w.Version) {
				c.marks[w.Obj] = w.Version
			}
		}
	}
	ro := t.ReadOnly
	res.add(func(s *runStats) {
		s.committed++
		if ro {
			s.reads++
		} else {
			s.writes++
		}
		if violation {
			s.violations++
		}
		if sh != model.NoShard {
			if s.shardCommitted == nil {
				s.shardCommitted = make(map[model.ShardID]int64)
			}
			s.shardCommitted[sh]++
		}
	})
}

// runStats accumulates outcomes across clients.
type runStats struct {
	mu             sync.Mutex
	committed      int64
	reads          int64
	writes         int64
	failed         int64
	shed           int64
	violations     int64
	shardCommitted map[model.ShardID]int64
}

func (s *runStats) add(f func(*runStats)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

// runLoad drives the closed loop against a gateway base URL.
func runLoad(opt *options, url string, batching bool) (*report, error) {
	objs := workload.Objects(opt.objects)
	mix := workload.Mix{ReadFraction: opt.readFraction}
	reg := metrics.NewRegistry()
	stats := &runStats{}
	transport := &http.Transport{MaxIdleConnsPerHost: opt.clients}
	defer transport.CloseIdleConnections()

	// Placement is a pure hash of (seed, shard count), so the load
	// generator classifies per shard with the same function the cluster
	// places by — no metadata exchange, works against external targets.
	var smap *shard.Map
	if opt.shards > 1 {
		var err error
		smap, err = shard.NewMap(shard.Config{
			Shards: opt.shards, Seed: opt.shardSeed,
			Procs: []model.ProcID{1}, Objects: objs,
		})
		if err != nil {
			return nil, fmt.Errorf("shard map: %w", err)
		}
	}
	// objsFor is client i's keyspace. With -spread S each client stays
	// on S shards starting at its home shard (1 + i mod K), so S=1 makes
	// every transaction single-shard (pure conveyor-lane locality) and
	// S=K is uniform again.
	objsFor := func(i int) []model.ObjectID {
		if smap == nil || opt.spread == 0 || opt.spread >= opt.shards {
			return objs
		}
		allowed := make(map[model.ShardID]bool, opt.spread)
		home := i % opt.shards
		for j := 0; j < opt.spread; j++ {
			allowed[model.ShardID(1+(home+j)%opt.shards)] = true
		}
		var mine []model.ObjectID
		for _, o := range objs {
			if allowed[smap.ShardOf(o)] {
				mine = append(mine, o)
			}
		}
		if len(mine) == 0 {
			return objs // the chosen shards own no objects; stay uniform
		}
		return mine
	}

	stop := time.Now().Add(opt.ramp + opt.duration)
	var wg sync.WaitGroup
	began := time.Now()
	for i := 0; i < opt.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if opt.ramp > 0 && opt.clients > 1 {
				time.Sleep(opt.ramp * time.Duration(i) / time.Duration(opt.clients))
			}
			c := &client{
				id:  i,
				url: url,
				hc:  &http.Client{Transport: transport, Timeout: 30 * time.Second},
				// Per-client seeds keep every client's stream independent
				// and the whole run reproducible.
				gen:   workload.NewGenerator(opt.seed+int64(i), objsFor(i), []model.ProcID{1}, mix, opt.zipf),
				marks: map[string]gateway.VerRef{},
			}
			if smap != nil {
				c.shardOf = smap.ShardOf
			}
			if opt.rate <= 0 {
				for time.Now().Before(stop) {
					c.step(stats, reg, time.Time{})
				}
				return
			}
			// Paced: this client fires every clients/rate seconds, offset
			// by its index so the fleet's arrivals interleave evenly. A
			// client behind schedule (the target is slower than the
			// offered rate) sends immediately but keeps measuring from
			// the scheduled time.
			interval := time.Duration(float64(opt.clients) / opt.rate * float64(time.Second))
			next := time.Now().Add(interval * time.Duration(i) / time.Duration(opt.clients))
			for next.Before(stop) {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				c.step(stats, reg, next)
				next = next.Add(interval)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(began)

	rep := &report{}
	rep.Config.Clients = opt.clients
	rep.Config.RateTPS = opt.rate
	rep.Config.DurationMS = opt.duration.Milliseconds()
	rep.Config.ReadFraction = opt.readFraction
	rep.Config.Objects = opt.objects
	rep.Config.Zipf = opt.zipf
	rep.Config.Seed = opt.seed
	rep.Config.Batching = batching
	if opt.shards > 1 {
		rep.Config.Shards = opt.shards
		rep.Config.Spread = opt.spread
	}
	rep.ElapsedMS = elapsed.Milliseconds()
	rep.Committed = stats.committed
	rep.CommittedTPS = float64(stats.committed) / elapsed.Seconds()
	rep.Reads, rep.Writes = stats.reads, stats.writes
	rep.Failed, rep.Shed = stats.failed, stats.shed
	rep.Violations = stats.violations
	rep.LatencyMS = toLatency(reg.Samples("load.latency"))
	rep.ReadLatencyMS = toLatency(reg.Samples("load.read.latency"))
	gw, counters := scrapeGateway(url)
	rep.Gateway = gw
	if smap != nil {
		rep.PerShard = make(map[string]*shardSide, opt.shards)
		for s := model.ShardID(1); int(s) <= opt.shards; s++ {
			side := &shardSide{
				Committed: stats.shardCommitted[s],
				LatencyMS: toLatency(reg.Samples(fmt.Sprintf("load.latency.s%d", s))),
			}
			side.CommittedTPS = float64(side.Committed) / elapsed.Seconds()
			if counters != nil {
				side.BatchRounds = counters[fmt.Sprintf("%s.s%d", metrics.CGwBatchRounds, s)]
			}
			rep.PerShard[fmt.Sprintf("s%d", s)] = side
		}
	}
	return rep, nil
}

// scrapeGateway pulls the ablation counters from /gw/stats; absence is
// not an error (the target may not expose stats). The raw counter map
// is returned alongside for per-shard lane breakdowns.
func scrapeGateway(url string) (*gwSide, map[string]int64) {
	resp, err := http.Get(url + "/gw/stats")
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var st gateway.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, nil
	}
	g := &gwSide{
		WriteTxns:      st.Counters[metrics.CGwWriteTxns],
		WriteCommitted: st.Counters[metrics.CGwWriteCommitted],
		BatchRounds:    st.Counters[metrics.CGwBatchRounds],
		MeanBatchSize:  st.Batch.Mean,
		StaleRetries:   st.Counters[metrics.CGwStaleRetries],
		Shed:           st.Counters[metrics.CGwShed],
	}
	if g.WriteCommitted > 0 {
		g.RoundsPerWrite = float64(g.WriteTxns) / float64(g.WriteCommitted)
	}
	return g, st.Counters
}

// localCluster is an in-process real-TCP cluster plus gateway.
type localCluster struct {
	url   string
	hist  *onecopy.History
	stop  func()
	gwCfg gateway.Config
	// recs holds the live recorders when tracing is on: the gateway's
	// first, then one per node. Merging their events reassembles the
	// cross-process span trees.
	recs []*trace.Recorder
}

// bootLocal starts n vpnode cores over real sockets and one gateway.
// With opt.traceSample > 0 every process records causal spans, and the
// nodes run with an in-memory journal so traces show the durable
// subsystem too.
func bootLocal(opt *options, batching bool) (*localCluster, error) {
	n := opt.local
	addrs := map[model.ProcID]string{}
	for i := 0; i < n; i++ {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[model.ProcID(i+1)] = l.Addr().String()
		l.Close()
	}
	objs := workload.Objects(opt.objects)
	cat := model.FullyReplicated(n, objs...)
	hist := onecopy.NewHistory()
	cfg := core.Config{Config: node.Config{Delta: opt.delta, LogCap: 256, TraceSample: opt.traceSample}, UseLogCatchup: true}
	var smap *shard.Map
	if opt.shards > 1 {
		procs := make([]model.ProcID, n)
		for i := range procs {
			procs[i] = model.ProcID(i + 1)
		}
		var err error
		smap, err = shard.NewMap(shard.Config{
			Shards: opt.shards, Replicas: opt.shardReplicas, Seed: opt.shardSeed,
			Procs: procs, Objects: objs,
		})
		if err != nil {
			return nil, fmt.Errorf("shard map: %w", err)
		}
	}
	var (
		nodes []*vnet.TCPNode
		recs  []*trace.Recorder
	)
	newRec := func() *trace.Recorder {
		if opt.traceSample <= 0 {
			return nil
		}
		r := trace.New(trace.DefaultCap)
		r.SetEnabled(true)
		recs = append(recs, r)
		return r
	}
	gwRec := newRec()
	for id := model.ProcID(1); id <= model.ProcID(n); id++ {
		var nd vnet.Handler
		switch {
		case smap != nil && opt.traceSample > 0:
			nd = shard.NewRouterDurable(id, cfg, smap, hist, durable.NewMemJournal())
		case smap != nil:
			nd = shard.NewRouter(id, cfg, smap, hist)
		case opt.traceSample > 0:
			nd = core.NewDurable(id, cfg, cat, hist, durable.NewMemJournal())
		default:
			nd = core.New(id, cfg, cat, hist)
		}
		tcp := vnet.NewTCPNode(id, addrs, nd)
		if rec := newRec(); rec != nil {
			tcp.SetTracer(rec)
		}
		if err := tcp.Run(); err != nil {
			for _, nd := range nodes {
				nd.Stop()
			}
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
		nodes = append(nodes, tcp)
	}
	gwCfg := gateway.Config{
		Cluster: addrs, Batching: batching, BatchWindow: opt.batchWindow,
		PerTry: time.Second, Deadline: 20 * time.Second,
		Tracer: gwRec, TraceSample: opt.traceSample,
	}
	if smap != nil {
		gwCfg.Shards = opt.shards
		gwCfg.ShardSeed = opt.shardSeed
		gwCfg.ShardReplicas = opt.shardReplicas
	}
	g := gateway.New(gwCfg)
	srv, addr, err := g.Serve("127.0.0.1:0")
	if err != nil {
		for _, nd := range nodes {
			nd.Stop()
		}
		g.Close()
		return nil, err
	}
	stop := func() {
		srv.Close()
		g.Close()
		for _, nd := range nodes {
			nd.Stop()
		}
	}
	return &localCluster{url: "http://" + addr, hist: hist, stop: stop, gwCfg: gwCfg, recs: recs}, nil
}

// mergedEvents drains every live recorder into one stream, ready for
// trace.BuildTrees or a JSONL dump. Cross-process span assembly needs
// nothing more: contexts alone link the events.
func (c *localCluster) mergedEvents() []trace.Event {
	var events []trace.Event
	for _, r := range c.recs {
		events = append(events, r.Events()...)
	}
	return events
}

// shardCompareReport is the BENCH_shard.json shape: the same load
// against an unsharded cluster and a sharded one.
type shardCompareReport struct {
	Bench           string  `json:"bench"`
	Unsharded       *report `json:"unsharded"`
	Sharded         *report `json:"sharded"`
	TPSRatioSharded float64 `json:"tps_sharded_over_unsharded"`
	P50RatioSharded float64 `json:"p50_sharded_over_unsharded"`
	Description     string  `json:"description"`
}

// compareReport is the BENCH_gateway.json shape: the same load with
// batching off and on.
type compareReport struct {
	Bench       string  `json:"bench"`
	Off         *report `json:"batching_off"`
	On          *report `json:"batching_on"`
	RoundsOff   float64 `json:"rounds_per_write_off"`
	RoundsOn    float64 `json:"rounds_per_write_on"`
	P50RatioOn  float64 `json:"p50_on_over_off"`
	TPSRatioOn  float64 `json:"tps_on_over_off"`
	Description string  `json:"description"`
}

func run(opt *options, w io.Writer) error {
	emit := func(v any) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	smokeCheck := func(reps ...*report) error {
		if !opt.smoke {
			return nil
		}
		for _, r := range reps {
			if r.Committed == 0 {
				return fmt.Errorf("smoke: zero committed throughput")
			}
			if r.Violations != 0 {
				return fmt.Errorf("smoke: %d read-your-writes violations", r.Violations)
			}
		}
		return nil
	}

	if opt.local == 0 {
		rep, err := runLoad(opt, opt.addr, opt.batch)
		if err != nil {
			return err
		}
		if err := emit(rep); err != nil {
			return err
		}
		return smokeCheck(rep)
	}

	runOnce := func(o *options, batching bool) (*report, error) {
		lc, err := bootLocal(o, batching)
		if err != nil {
			return nil, err
		}
		defer lc.stop()
		rep, err := runLoad(o, lc.url, batching)
		if err != nil {
			return nil, err
		}
		if r := onecopy.CheckGraph(lc.hist); !r.OK {
			rep.Violations++
			fmt.Fprintf(os.Stderr, "vpload: history not one-copy serializable: %s\n", r.Reason)
		}
		if o.traceOut != "" && len(lc.recs) > 0 {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return nil, err
			}
			events := lc.mergedEvents()
			if err := trace.WriteJSONL(f, events); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "vpload: %d trace events -> %s\n", len(events), o.traceOut)
		}
		return rep, nil
	}

	runBatchCompare := func() (*compareReport, []*report, error) {
		off, err := runOnce(opt, false)
		if err != nil {
			return nil, nil, err
		}
		on, err := runOnce(opt, true)
		if err != nil {
			return nil, nil, err
		}
		cmp := &compareReport{
			Bench: "gateway group-commit ablation",
			Off:   off, On: on,
			Description: "identical load against a fresh local cluster, batching off vs on; " +
				"rounds_per_write is backend 2PC rounds per committed logical write; with -rate, " +
				"latency is measured from each request's scheduled send time (coordinated-omission " +
				"corrected), so a side that cannot sustain the offered rate shows its backlog as latency",
		}
		if off.Gateway != nil {
			cmp.RoundsOff = off.Gateway.RoundsPerWrite
		}
		if on.Gateway != nil {
			cmp.RoundsOn = on.Gateway.RoundsPerWrite
		}
		if off.LatencyMS.P50 > 0 {
			cmp.P50RatioOn = on.LatencyMS.P50 / off.LatencyMS.P50
		}
		if off.CommittedTPS > 0 {
			cmp.TPSRatioOn = on.CommittedTPS / off.CommittedTPS
		}
		return cmp, []*report{off, on}, nil
	}

	runShardCompare := func() (*shardCompareReport, []*report, error) {
		base := *opt
		base.shards, base.spread = 1, 0
		un, err := runOnce(&base, opt.batch)
		if err != nil {
			return nil, nil, err
		}
		sh, err := runOnce(opt, opt.batch)
		if err != nil {
			return nil, nil, err
		}
		cmp := &shardCompareReport{
			Bench:     "shard scale-out ablation",
			Unsharded: un, Sharded: sh,
			Description: "identical load against a fresh local cluster, one global virtual partition vs " +
				"-shards independent per-shard partitions (same node count; -spread confines each " +
				"client's keys to its home shards, so single-shard transactions commit in their own " +
				"conveyor lane and never pay cross-shard 2PC); per_shard breaks the sharded side down " +
				"by owning shard",
		}
		if un.CommittedTPS > 0 {
			cmp.TPSRatioSharded = sh.CommittedTPS / un.CommittedTPS
		}
		if un.LatencyMS.P50 > 0 {
			cmp.P50RatioSharded = sh.LatencyMS.P50 / un.LatencyMS.P50
		}
		return cmp, []*report{un, sh}, nil
	}

	switch {
	case opt.shardCompare:
		cmp, reps, err := runShardCompare()
		if err != nil {
			return err
		}
		if err := emit(cmp); err != nil {
			return err
		}
		return smokeCheck(reps...)
	case opt.compare:
		cmp, reps, err := runBatchCompare()
		if err != nil {
			return err
		}
		if err := emit(cmp); err != nil {
			return err
		}
		return smokeCheck(reps...)
	}

	rep, err := runOnce(opt, opt.batch)
	if err != nil {
		return err
	}
	if err := emit(rep); err != nil {
		return err
	}
	return smokeCheck(rep)
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpload:", err)
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if opt.out != "" {
		f, err := os.Create(opt.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpload:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := run(opt, w); err != nil {
		fmt.Fprintln(os.Stderr, "vpload:", err)
		os.Exit(1)
	}
}
