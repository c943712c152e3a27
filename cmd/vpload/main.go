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
// The cluster and gateway are started separately (vpnode, vpgateway);
// the nodes must host the generator's objects o0..o{N-1}. The
// deployed-stack harness in benchmark/ boots both and drives them.
//
//	vpload -addr http://localhost:8080           # closed loop against a gateway
//	vpload -addr localhost:8080 -smoke           # exit non-zero on zero throughput
//	                                             # or any read-your-writes violation
//	vpload -addr localhost:8080 -shards 4 -spread 1
//	                                             # per-shard report; every client keyed
//	                                             # to its home shard
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/workload"
)

// options is the parsed command line, separated from main so the
// harness is drivable from tests without forking.
type options struct {
	addr         string
	clients      int
	rate         float64
	duration     time.Duration
	ramp         time.Duration
	readFraction float64
	objects      int
	zipf         float64
	seed         int64
	smoke        bool
	out          string

	shards    int
	shardSeed int64
	spread    int
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("vpload", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "", "gateway base URL (e.g. http://localhost:8080); required")
		clients      = fs.Int("clients", 8, "concurrent closed-loop clients (each is one session)")
		rate         = fs.Float64("rate", 0, "target offered load in requests/sec across all clients (0 = closed loop, as fast as responses return); latency is then measured from the scheduled send time, so an overloaded target shows its true queueing delay instead of coordinated omission")
		duration     = fs.Duration("duration", 5*time.Second, "measured load duration")
		ramp         = fs.Duration("ramp", 0, "stagger client start times across this window")
		readFraction = fs.Float64("read-fraction", 0.5, "fraction of requests that are reads")
		objects      = fs.Int("objects", 4, "number of logical objects")
		zipf         = fs.Float64("zipf", 0, "object popularity skew (0 = uniform)")
		seed         = fs.Int64("seed", 1, "workload seed; runs are reproducible per client")
		smoke        = fs.Bool("smoke", false, "assert non-zero committed throughput and zero violations; exit 1 otherwise")
		out          = fs.String("out", "", "write the JSON report here instead of stdout")
		shards       = fs.Int("shards", 1, "the target's shard count; > 1 enables the per-shard report (must match the target's sharding)")
		shardSeed    = fs.Int64("shard-seed", 1, "shard placement seed (must match the target cluster)")
		spread       = fs.Int("spread", 0, "keyspace spread: each client confines its keys to this many shards, starting from its home shard (0 = uniform over the whole keyspace); 1 makes every transaction single-shard")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *addr == "" {
		return nil, fmt.Errorf("-addr is required")
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
	if !strings.Contains(*addr, "://") {
		// Accept bare host:port; without a scheme http.Client fails every
		// request instantly and the whole run reads as "failed".
		*addr = "http://" + *addr
	}
	return &options{
		addr: *addr, clients: *clients, rate: *rate,
		duration: *duration, ramp: *ramp,
		readFraction: *readFraction, objects: *objects, zipf: *zipf, seed: *seed,
		smoke: *smoke, out: *out,
		shards: *shards, shardSeed: *shardSeed, spread: *spread,
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

	// Gateway-side batching counters, scraped from /gw/stats.
	Gateway *gwSide `json:"gateway,omitempty"`
}

// shardSide is the per-shard slice of a run: how much of the committed
// load landed on the shard and what it cost.
type shardSide struct {
	Committed    int64   `json:"committed"`
	CommittedTPS float64 `json:"committed_tps"`
	LatencyMS    latency `json:"latency_ms"`
	// BatchRounds is the gateway's group-commit round count for this
	// shard's conveyor lane (0 when the target does not expose stats).
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

// runLoad drives the load against the gateway at opt.addr.
func runLoad(opt *options) (*report, error) {
	objs := workload.Objects(opt.objects)
	mix := workload.Mix{ReadFraction: opt.readFraction}
	reg := metrics.NewRegistry()
	stats := &runStats{}
	transport := &http.Transport{MaxIdleConnsPerHost: opt.clients}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}

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
				url: opt.addr,
				hc:  hc,
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
	gw, counters := scrapeGateway(hc, opt.addr)
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

// scrapeGateway pulls the batching counters from /gw/stats; absence is
// not an error (the target may not expose stats). The raw counter map
// is returned alongside for per-shard lane breakdowns. hc's timeout
// bounds the scrape, so a gateway that stopped answering after the load
// window fails it instead of hanging the run.
func scrapeGateway(hc *http.Client, url string) (*gwSide, map[string]int64) {
	resp, err := hc.Get(url + "/gw/stats")
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

func run(opt *options, w io.Writer) error {
	rep, err := runLoad(opt)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !opt.smoke {
		return nil
	}
	if rep.Committed == 0 {
		return fmt.Errorf("smoke: zero committed throughput")
	}
	if rep.Violations != 0 {
		return fmt.Errorf("smoke: %d read-your-writes violations", rep.Violations)
	}
	return nil
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
