package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// plan is how long one run of a workload spends in each part. Set-up,
// warm-up, verification and teardown are outside every timed region.
type plan struct {
	untraced time.Duration // measured window with tracing off; end-to-end metrics come from here
	traced   time.Duration // measured window of the traced reboot; 0 skips it
	warmup   time.Duration // discarded load before each window
	setups   int           // boots of the untraced cluster; setup_s is their mid-mean
}

// faultPlan is the kill/restart schedule of a faulted workload: every
// cycle, killAfter into it, one node is killed -9 and restarted on the
// same -data directory down later. Victims rotate over the
// highest-numbered two nodes, so node 1 never dies and a majority always
// survives.
type faultPlan struct {
	cycle, killAfter, down time.Duration
	cycles                 int
}

func planFaults(window time.Duration) faultPlan {
	fp := faultPlan{cycle: 8 * time.Second, killAfter: time.Second, down: 1500 * time.Millisecond}
	if window < fp.cycle {
		// A window shorter than one cycle (-smoke) still gets one
		// kill/restart, squeezed to fit.
		scale := float64(window) / float64(fp.cycle)
		fp.cycle = window
		fp.killAfter = time.Duration(float64(fp.killAfter) * scale)
		fp.down = time.Duration(float64(fp.down) * scale)
	}
	fp.cycles = int(window / fp.cycle)
	return fp
}

// cycle reports one kill/restart of the fault schedule. Times are
// milliseconds; KillAtMS is relative to the window's start.
type cycle struct {
	Victim        int     `json:"victim"`
	KillAtMS      float64 `json:"kill_at_ms"`
	OutageMS      float64 `json:"vp.outage_ms"`        // longest commit-free gap from the kill to the next cycle
	RejoinMS      float64 `json:"vp.rejoin_ms"`        // restart → the victim's /healthz view holds every node
	Rejoined      bool    `json:"rejoined"`            // false: not back in a full view when the next cycle began
	RecoveryMS    float64 `json:"journal.recovery_ms"` // the victim's journal replay at restart
	CatchupWrites float64 `json:"vp.catchup_writes"`   // missed writes the surviving peers served the victim
	RefreshBytes  float64 `json:"vp.refresh_bytes"`

	killNS, nextNS int64 // since load start, for the outage gap
}

// phaseResult is one boot → warm-up → window → verify → teardown pass.
type phaseResult struct {
	setups       []float64 // seconds per boot
	act          activity
	violations   []string
	dupApplied   int64
	viewChanges  float64
	cycles       []cycle
	nodeDirectMS float64
	rollups      map[string][]phaseSummary
	progSpans    []progSpan
}

// snapshot is the outside-in state of a cluster at one instant.
type snapshot struct {
	gw      counters
	nodes   []counters
	gwCPU   time.Duration
	nodeCPU time.Duration
	vpn     []uint64
}

func takeSnapshot(c *cluster) (snapshot, error) {
	gw, err := scrapeGateway(c.gwURL)
	if err != nil {
		return snapshot{}, err
	}
	s := snapshot{gw: gw, gwCPU: c.gw.cpu(), nodeCPU: c.nodeCPU()}
	for i := range c.nodes {
		s.nodes = append(s.nodes, scrapeNode(c.debugAddr[i]))
		s.vpn = append(s.vpn, c.health(i).VPN)
	}
	return s, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// conduct runs beside the load: it snapshots the cluster at the window's
// edges and, on a faulted workload, executes the kill/restart schedule
// in between. It fills res.act (except the window itself) and
// res.cycles.
func conduct(c *cluster, t0, w0, w1 time.Time, res *phaseResult) error {
	sleepUntil(w0)
	start, err := takeSnapshot(c)
	if err != nil {
		return err
	}
	tallies := make([]nodeTally, len(c.nodes))
	for i := range tallies {
		tallies[i].base = start.nodes[i]
	}
	if c.sp.Fault {
		fp := planFaults(w1.Sub(w0))
		for k := 0; k < fp.cycles; k++ {
			begin := w0.Add(time.Duration(k) * fp.cycle)
			next := begin.Add(fp.cycle)
			victim := len(c.nodes) - 1 - k%2
			sleepUntil(begin.Add(fp.killAfter))
			tallies[victim].bank(scrapeNode(c.debugAddr[victim]))
			served := c.catchupServed(victim)
			killed := time.Now()
			c.nodes[victim].kill()
			sleepUntil(killed.Add(fp.down))
			restarted := time.Now()
			if err := c.nodes[victim].start(); err != nil {
				return err
			}
			cy := cycle{Victim: victim + 1, KillAtMS: ms(killed.Sub(w0)),
				killNS: int64(killed.Sub(t0)), nextNS: int64(next.Sub(t0))}
			cy.Rejoined = c.waitFullView(victim, next.Add(-100*time.Millisecond)) == nil
			cy.RejoinMS = ms(time.Since(restarted))
			sleepUntil(next.Add(-50 * time.Millisecond))
			cy.RecoveryMS = scrapeNode(c.debugAddr[victim])[promRecoveryP50]
			after := c.catchupServed(victim)
			cy.CatchupWrites = after[promCatchup] - served[promCatchup]
			cy.RefreshBytes = after[promRefreshB] - served[promRefreshB]
			res.cycles = append(res.cycles, cy)
		}
	}
	sleepUntil(w1)
	end, err := takeSnapshot(c)
	if err != nil {
		return err
	}
	a := &res.act
	a.gw, a.node = counters{}, counters{}
	for k, v := range end.gw {
		a.gw[k] = v - start.gw[k]
	}
	var lags []float64
	for i := range c.nodes {
		for k, v := range tallies[i].total(end.nodes[i]) {
			a.node[k] += v
		}
		if lag, ok := end.nodes[i][promJLagP50]; ok {
			lags = append(lags, lag)
		}
		if end.vpn[i] != start.vpn[i] {
			a.viewMove = true
		}
		a.nodeRSS += c.nodes[i].rssMB()
	}
	a.lagP50 = median(lags)
	a.gwCPU = end.gwCPU - start.gwCPU
	a.nodeCPU = end.nodeCPU - start.nodeCPU
	a.gwRSS = c.gw.rssMB()
	res.viewChanges = a.node[promVPCreated]
	return nil
}

// catchupServed sums the R5 catch-up counters over every node but the
// victim: the peers that serve a rejoining node's missed writes count
// them, not the node that receives them.
func (c *cluster) catchupServed(victim int) counters {
	sum := counters{}
	for i := range c.nodes {
		if i != victim {
			sc := scrapeNode(c.debugAddr[i])
			sum[promCatchup] += sc[promCatchup]
			sum[promRefreshB] += sc[promRefreshB]
		}
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPhase boots the workload's cluster (setups times; the last boot is
// used), replays the streams through warm-up and the measured window,
// verifies the outputs and tears the cluster down.
func runPhase(e *env, sp spec, streams [][]request, traced bool, setups int, warmup, window time.Duration,
	log *spanLog) (*phaseResult, error) {
	res := &phaseResult{}
	names := objectNames(sp.Objects)
	tag := "untraced"
	if traced {
		tag = "traced"
	}
	var c *cluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.stop()
		}
		began := time.Now()
		var err error
		if c, err = bootCluster(e, sp, traced); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, c.setup.Seconds())
		log.add("phase.setup", tag, "", "", began, c.setup)
	}
	defer c.stop()

	clients := make([]*client, len(streams))
	for i := range clients {
		clients[i] = newClient(i, c.gwURL, streams[i], names)
		defer clients[i].close()
		if traced {
			clients[i].spans, clients[i].spanParent = log, "phase.window"
		}
	}
	t0 := time.Now()
	w0 := t0.Add(warmup)
	w1 := w0.Add(window)
	conductErr := make(chan error, 1)
	go func() { conductErr <- conduct(c, t0, w0, w1, res) }()
	runLoad(clients, sp.Rate, t0, w1)
	log.add("phase.window", tag, "", "", w0, window)
	if err := <-conductErr; err != nil {
		return nil, err
	}
	if traced {
		// Before verification adds its own requests to the trace rings.
		if err := res.fetchSpans(c); err != nil {
			return nil, err
		}
	}
	shardOf, err := sp.shardOf()
	if err != nil {
		return nil, err
	}
	res.act.window = summarize(clients, int64(w0.Sub(t0)), int64(w1.Sub(t0)), shardOf)
	for i := range res.cycles {
		cy := &res.cycles[i]
		cy.OutageMS = res.act.window.longestGap(cy.killNS, cy.nextNS)
	}

	if sp.Fault {
		// Values are checked after the last restart has rejoined, so a
		// write the restarted node lost would be read.
		deadline := time.Now().Add(15 * time.Second)
		for i := range c.nodes {
			if err := c.waitFullView(i, deadline); err != nil {
				return nil, fmt.Errorf("%s: after the last restart: %w", sp.Name, err)
			}
		}
	}
	if !traced {
		if res.nodeDirectMS, err = probeNodeDirect(c.nodeAddr[0], names, streams[0], log); err != nil {
			return nil, err
		}
	}
	began := time.Now()
	merged := newLedger(sp.Objects)
	var stale []string
	for _, cl := range clients {
		merged.merge(cl.ledger)
		stale = append(stale, cl.stale...)
	}
	res.violations, res.dupApplied = verify(c.gwURL, verifyInput{names: names, ledger: merged, stale: stale, faulted: sp.Fault})
	log.add("phase.verify", tag, "", "", began, time.Since(began))

	return res, nil
}

// fetchSpans collects the /spans payload of the gateway and every node.
func (res *phaseResult) fetchSpans(c *cluster) error {
	res.rollups = map[string][]phaseSummary{}
	urls := map[string]string{"gw": c.gwURL}
	for i, a := range c.debugAddr {
		urls[fmt.Sprintf("n%d", i+1)] = "http://" + a
	}
	for _, src := range sortedKeys(urls) {
		rollup, spans, err := fetchSpans(src, urls[src])
		if err != nil {
			return err
		}
		res.rollups[src] = rollup
		res.progSpans = append(res.progSpans, spans...)
	}
	return nil
}

// result is everything one run of one workload produced.
type result struct {
	Workload      string                    `json:"workload"`
	Seed          int64                     `json:"seed"`
	Rep           int                       `json:"rep"`
	Clients       int                       `json:"clients"`
	GOMAXPROCS    int                       `json:"gomaxprocs"`
	StreamSHA256  string                    `json:"stream_sha256"`
	WindowS       float64                   `json:"window_s"`
	TracedWindowS float64                   `json:"traced_window_s,omitempty"`
	Correct       bool                      `json:"correct"`
	Disturbed     bool                      `json:"disturbed,omitempty"`
	Attempted     int64                     `json:"attempted"`
	Failed        int64                     `json:"failed"`
	Violations    []string                  `json:"violations,omitempty"`
	EndToEnd      map[string]metric         `json:"end_to_end"`
	Layers        map[string]metric         `json:"per_layer"`
	MsgsByKind    map[string]float64        `json:"node.msgs_per_op_by_kind,omitempty"`
	Cycles        []cycle                   `json:"fault_cycles,omitempty"`
	LayerTables   []layerTable              `json:"layer_tables,omitempty"`
	SpanRollups   map[string][]phaseSummary `json:"span_rollups,omitempty"`
}

// runWorkload runs one workload once: the untraced pass that yields the
// end-to-end metrics, the probes, then (plan.traced > 0) the traced
// reboot that yields the layer table. A steady pass during which a view
// changed is flagged disturbed and repeated once.
func runWorkload(e *env, sp spec, seed int64, pl plan, out io.Writer) (*result, error) {
	clients := runtime.NumCPU()
	streams, sha, err := genStreams(sp, seed, clients, streamLen)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: sp.Name, Seed: seed, Clients: clients, GOMAXPROCS: runtime.GOMAXPROCS(0),
		StreamSHA256: sha, WindowS: pl.untraced.Seconds(), TracedWindowS: pl.traced.Seconds()}
	fmt.Fprintf(out, "== %s  seed=%d clients=%d gomaxprocs=%d stream_sha256=%s\n", sp.Name, seed, clients, r.GOMAXPROCS, sha)
	log := newSpanLog()

	pass := func(traced bool, setups int, window time.Duration) (*phaseResult, error) {
		ph, err := runPhase(e, sp, streams, traced, setups, pl.warmup, window, log)
		if err == nil && !sp.Fault && ph.act.viewMove {
			fmt.Fprintf(out, "   disturbed: a view changed during the steady window; running it again\n")
			r.Disturbed = true
			ph, err = runPhase(e, sp, streams, traced, setups, pl.warmup, window, log)
		}
		return ph, err
	}

	untraced, err := pass(false, pl.setups, pl.untraced)
	if err != nil {
		return nil, err
	}
	w := untraced.act.window
	r.Attempted, r.Failed = w.attempted, w.failed
	r.Violations = untraced.violations
	r.EndToEnd = w.endToEnd()
	r.EndToEnd["setup_s"] = metric{Value: midMean(untraced.setups), Unit: "s", N: len(untraced.setups)}
	r.Layers = untraced.act.layerMetrics()
	r.MsgsByKind = untraced.act.msgsByKind()
	r.Layers["probe.node_direct_ms"] = metric{Value: untraced.nodeDirectMS, Unit: "ms"}
	if sp.Shards > 1 {
		for k, v := range untraced.act.shardMetrics(sp) {
			r.Layers[k] = v
		}
	}
	if sp.Fault {
		r.Cycles = untraced.cycles
		r.Layers["vp.viewchanges"] = metric{Value: untraced.viewChanges, Unit: "count"}
		r.Layers["fault.dup_applied"] = metric{Value: float64(untraced.dupApplied), Unit: "count"}
	}
	if err := runProbes(e, sp, streams[0], r, log); err != nil {
		return nil, err
	}
	if pl.traced > 0 {
		traced, err := pass(true, 1, pl.traced)
		if err != nil {
			return nil, err
		}
		r.Violations = append(r.Violations, traced.violations...)
		tw := traced.act.window
		clientP50 := map[string]float64{"read": sortedMedian(tw.readMS), "write": sortedMedian(tw.writeMS)}
		r.LayerTables = buildLayerTables(traced.progSpans, clientP50)
		r.SpanRollups = traced.rollups
		for _, t := range r.LayerTables {
			r.Layers[t.Op+".unattributed_ms"] = metric{Value: t.UnattributedMS, Unit: "ms", N: t.Traces}
		}
		for phase, us := range spanMedians(traced.progSpans) {
			r.Layers["span."+phase+"_us"] = us
		}
		// Overhead on the operation type the workload is mostly made of.
		un, tr := w.writeMS, tw.writeMS
		if len(w.readMS) > len(un) {
			un, tr = w.readMS, tw.readMS
		}
		if len(un) > 0 && len(tr) > 0 {
			r.Layers["trace_overhead_frac"] = metric{Value: sortedMedian(tr)/sortedMedian(un) - 1, Unit: "fraction", N: len(tr)}
		}
		path := filepath.Join(e.outDir, sp.Name+".spans.jsonl")
		if err := writeSpans(path, log.spans, traced.progSpans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "   spans: %d harness + %d program spans -> %s\n", len(log.spans), len(traced.progSpans), path)
	}
	r.Correct = len(r.Violations) == 0
	return r, nil
}

// runProbes fills the probe.* layer metrics that need no cluster.
func runProbes(e *env, sp spec, stream []request, r *result, log *spanLog) error {
	names := objectNames(sp.Objects)
	wireNS, err := probeWire(log)
	if err != nil {
		return err
	}
	syncUS, err := probeDurable(filepath.Join(e.outDir, sp.Name), names, stream, log)
	if err != nil {
		return err
	}
	r.Layers["probe.wire_ns_per_frame"] = metric{Value: wireNS, Unit: "ns"}
	r.Layers["probe.locks_ns_per_acquire_release"] = metric{Value: probeLocks(names, stream, log), Unit: "ns"}
	r.Layers["probe.store_ns_per_stage_commit"] = metric{Value: probeStore(names, stream, log), Unit: "ns"}
	r.Layers["probe.durable_stage_sync_us"] = metric{Value: syncUS, Unit: "us"}
	return nil
}

// spanMedians pools the programs' spans by phase and returns each
// phase's median duration in microseconds.
func spanMedians(spans []progSpan) map[string]metric {
	byPhase := map[string][]float64{}
	for _, s := range spans {
		byPhase[s.Phase] = append(byPhase[s.Phase], float64(s.DurUS))
	}
	out := map[string]metric{}
	for phase, durs := range byPhase {
		sort.Float64s(durs)
		out[phase] = metric{Value: sortedMedian(durs), Unit: "us", N: len(durs)}
	}
	return out
}
