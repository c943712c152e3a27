package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	stdnet "net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/gateway"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// livePlatform runs a cell on the full stack: N TCP nodes with durable
// journals, a nemesis interceptor on every link, and the HTTP gateway in
// front — the same assembly as `vpchaos` plus `vpgateway`. Workload
// transactions go through the gateway (so the group-commit axis
// exercises the production path); liveness probes go straight to a
// node over the retrying TCP client, so the liveness gate judges the
// cluster, not the gateway. Crash steps stop the node process and close
// its journal; restart re-opens the journal through the recovery path.
type livePlatform struct {
	cfg   ClusterConfig
	procs []model.ProcID
	addrs map[model.ProcID]string
	dirs  map[model.ProcID]string
	cat   *model.Catalog
	objs  []model.ObjectID
	hist  *onecopy.History
	rec   *trace.Recorder
	inj   *nemesis.Injector

	nodes    map[model.ProcID]*vnet.TCPNode
	journals map[model.ProcID]*durable.FileJournal
	disks    map[model.ProcID]*nemesis.DiskFaults
	chopRng  *rand.Rand

	gw    *gateway.Gateway
	gwSrv *http.Server
	gwURL string
	httpc *http.Client

	started bool

	mu      sync.Mutex
	results map[uint64]wire.ClientResult
	latency map[uint64]time.Duration
	origin  time.Time
}

func (p *livePlatform) Name() string        { return BackendLive }
func (p *livePlatform) Deterministic() bool { return false }

func (p *livePlatform) Start(cfg ClusterConfig) error {
	if p.started {
		return fmt.Errorf("campaign/live: Start on a started platform")
	}
	p.cfg = cfg
	p.procs = make([]model.ProcID, cfg.N)
	p.addrs = map[model.ProcID]string{}
	p.dirs = map[model.ProcID]string{}
	for i := range p.procs {
		proc := model.ProcID(i + 1)
		p.procs[i] = proc
		dir, err := os.MkdirTemp("", fmt.Sprintf("vpcampaign-n%d-", proc))
		if err != nil {
			return err
		}
		p.dirs[proc] = dir
	}
	ports, err := freePorts(cfg.N)
	if err != nil {
		p.removeDirs()
		return err
	}
	for i, proc := range p.procs {
		p.addrs[proc] = ports[i]
	}
	p.objs = workload.Objects(cfg.Objects)
	p.cat = model.FullyReplicated(cfg.N, p.objs...)
	p.hist = onecopy.NewHistory()
	p.rec = trace.New(1 << 18)
	p.rec.SetEnabled(true)
	for _, obj := range p.cat.Objects() {
		p.rec.Record(trace.Event{Kind: trace.EvPlacement, Obj: obj, Procs: p.cat.Copies(obj).Sorted()})
	}
	p.inj = nemesis.NewInjector(cfg.Seed)
	p.nodes = map[model.ProcID]*vnet.TCPNode{}
	p.journals = map[model.ProcID]*durable.FileJournal{}
	p.disks = map[model.ProcID]*nemesis.DiskFaults{}
	p.chopRng = rand.New(rand.NewSource(cfg.Seed ^ 0x6b696c6c39))
	for _, proc := range p.procs {
		if err := p.boot(proc); err != nil {
			p.teardown()
			return err
		}
	}
	p.gw = gateway.New(gateway.Config{
		Cluster:  p.addrs,
		Batching: cfg.GroupCommit,
		PerTry:   700 * time.Millisecond,
		Deadline: 3 * time.Second,
	})
	srv, addr, err := p.gw.Serve("127.0.0.1:0")
	if err != nil {
		p.teardown()
		return err
	}
	p.gwSrv, p.gwURL = srv, "http://"+addr
	p.httpc = &http.Client{Timeout: 4 * time.Second}
	p.results = make(map[uint64]wire.ClientResult)
	p.latency = make(map[uint64]time.Duration)
	p.started = true
	return nil
}

// boot starts (or restarts) one node from its journal directory, exactly
// like vpchaos: a fresh journal cold-starts, a non-empty one goes
// through the recovery path.
func (p *livePlatform) boot(id model.ProcID) error {
	var fs durable.VFS
	if p.cfg.Kill9 {
		// A fresh, healed fault layer per boot: kill -9 damage lives on
		// disk, not in the wrapper.
		p.disks[id] = nemesis.NewDiskFaults(nil)
		fs = p.disks[id]
	}
	// The journal runs as vpnode's does by default: committer goroutine,
	// 2ms age bound on unsynced records.
	state, journal, err := durable.OpenOptions(p.dirs[id], durable.Options{
		FS: fs, Committer: true, FlushInterval: 2 * time.Millisecond})
	if err != nil {
		return fmt.Errorf("open journal for %v: %w", id, err)
	}
	ccfg := core.Config{Config: node.Config{Delta: p.cfg.Delta, LogCap: 256}, UseLogCatchup: true}
	var nd *core.Node
	if state.MaxID.IsZero() && len(state.Copies) == 0 {
		nd = core.NewDurable(id, ccfg, p.cat, p.hist, journal)
	} else {
		nd = core.NewRestored(id, ccfg, p.cat, p.hist, state, journal)
	}
	tn := vnet.NewTCPNodeConfig(id, p.addrs, nd, vnet.TCPConfig{
		DialTimeout:  500 * time.Millisecond,
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
	})
	tn.SetTracer(p.rec)
	tn.SetInterceptor(p.inj)
	if err := tn.Run(); err != nil {
		journal.Close()
		return fmt.Errorf("start node %v: %w", id, err)
	}
	p.nodes[id] = tn
	p.journals[id] = journal
	return nil
}

func (p *livePlatform) Drive(plan Plan) error {
	if !p.started {
		return fmt.Errorf("campaign/live: Drive before Start")
	}
	p.mu.Lock()
	p.origin = time.Now()
	p.mu.Unlock()
	// Kill -9 lead-ins: shortly before each crash the victim's fsync
	// starts failing, so the kill lands on a node whose durability
	// barrier is already refusing (it votes no and sheds load) — the
	// mid-commit shape the recovery path must survive.
	type fsyncLead struct {
		at     time.Duration
		victim model.ProcID
	}
	var leads []fsyncLead
	if p.cfg.Kill9 {
		for _, st := range plan.Faults.Steps {
			if st.Kind == nemesis.StepCrash {
				lead := st.At - 60*time.Millisecond
				if lead < 0 {
					lead = 0
				}
				leads = append(leads, fsyncLead{at: lead, victim: st.Victim})
			}
		}
	}
	li := 0
	sem := make(chan struct{}, 32)
	var wg sync.WaitGroup
	for _, ev := range mergeTimeline(plan) {
		for li < len(leads) && leads[li].at <= ev.at {
			if d := leads[li].at - time.Since(p.origin); d > 0 {
				time.Sleep(d)
			}
			if df, ok := p.disks[leads[li].victim]; ok {
				df.FailFsync(true)
			}
			li++
		}
		if d := ev.at - time.Since(p.origin); d > 0 {
			time.Sleep(d)
		}
		switch {
		case ev.txn != nil:
			wg.Add(1)
			go func(s workload.ScheduledTxn, probe bool) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if probe {
					p.runProbe(s, plan.End)
				} else {
					p.runGatewayTxn(s)
				}
			}(*ev.txn, isProbeTag(ev.txn.Txn.Request.Tag))
		case ev.step != nil:
			if p.inj.Apply(*ev.step) {
				continue
			}
			switch ev.step.Kind {
			case nemesis.StepCrash:
				if tn, ok := p.nodes[ev.step.Victim]; ok {
					if p.cfg.Kill9 {
						df := p.disks[ev.step.Victim]
						df.TearNextWrite(p.chopRng.Intn(24))
						time.Sleep(5 * time.Millisecond)
						df.Crash()
						tn.Stop()
						p.journals[ev.step.Victim].HardCrash()
						durable.ChopTail(nil, p.dirs[ev.step.Victim], 1+p.chopRng.Int63n(16)) //nolint:errcheck // best-effort extra damage
					} else {
						tn.Stop()
						p.journals[ev.step.Victim].Close()
					}
					delete(p.nodes, ev.step.Victim)
					delete(p.journals, ev.step.Victim)
					delete(p.disks, ev.step.Victim)
				}
			case nemesis.StepRestart:
				if _, up := p.nodes[ev.step.Victim]; !up {
					if err := p.boot(ev.step.Victim); err != nil {
						wg.Wait()
						return err
					}
				}
			}
		}
	}
	if d := plan.End - time.Since(p.origin); d > 0 {
		time.Sleep(d)
	}
	wg.Wait()
	return nil
}

// runGatewayTxn issues one workload transaction through the gateway's
// HTTP API: reads via GET /read, increments via POST /txn. The latency
// recorded is measured from the *scheduled* submission time, so queueing
// behind a slow phase counts against the cell (no coordinated omission).
func (p *livePlatform) runGatewayTxn(s workload.ScheduledTxn) {
	res := wire.ClientResult{Tag: s.Txn.Request.Tag}
	var resp *http.Response
	var err error
	if s.Txn.ReadOnly {
		obj := string(s.Txn.Request.Ops[0].Obj)
		resp, err = p.httpc.Get(p.gwURL + "/read?obj=" + url.QueryEscape(obj))
	} else {
		obj := string(s.Txn.Request.Ops[0].Obj)
		body, _ := json.Marshal(gateway.TxnRequest{Ops: []gateway.TxnOp{{Kind: "incr", Obj: obj, Delta: 1}}})
		resp, err = p.httpc.Post(p.gwURL+"/txn", "application/json", bytes.NewReader(body))
	}
	if err == nil {
		var tr gateway.TxnResponse
		if decErr := json.NewDecoder(resp.Body).Decode(&tr); decErr == nil {
			res.Committed = tr.Committed
			res.Denied = tr.Denied
		}
		resp.Body.Close()
	}
	at := time.Since(p.origin)
	p.mu.Lock()
	p.results[res.Tag] = res
	if res.Committed {
		if lat := at - s.At; lat > 0 {
			p.latency[res.Tag] = lat
		}
	}
	p.mu.Unlock()
}

// runProbe submits one post-heal liveness write directly to a node over
// the retrying TCP client, with the plan horizon as the deadline.
func (p *livePlatform) runProbe(s workload.ScheduledTxn, end time.Duration) {
	deadline := p.origin.Add(end)
	res, err := vnet.SubmitTCPRetry(p.addrs[s.Txn.Coordinator], s.Txn.Request,
		500*time.Millisecond, deadline)
	at := time.Since(p.origin)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.results[s.Txn.Request.Tag] = wire.ClientResult{Tag: s.Txn.Request.Tag}
		return
	}
	p.results[res.Tag] = res
	if res.Committed {
		if lat := at - s.At; lat > 0 {
			p.latency[res.Tag] = lat
		}
	}
}

func (p *livePlatform) Scrape() (*Snapshot, error) {
	if !p.started {
		return nil, fmt.Errorf("campaign/live: Scrape before Start")
	}
	counters := map[string]int64{}
	for _, tn := range p.nodes {
		for k, v := range tn.Metrics().Counters() {
			counters[k] += v
		}
	}
	for k, v := range p.gw.Metrics().Counters() {
		counters[k] += v
	}
	p.mu.Lock()
	results := make(map[uint64]wire.ClientResult, len(p.results))
	for k, v := range p.results {
		results[k] = v
	}
	latency := make(map[uint64]time.Duration, len(p.latency))
	for k, v := range p.latency {
		latency[k] = v
	}
	p.mu.Unlock()
	return &Snapshot{
		Counters: counters,
		Events:   p.rec.Events(),
		Hist:     p.hist,
		Results:  results,
		Latency:  latency,
	}, nil
}

func (p *livePlatform) Stop() error {
	if !p.started {
		return nil
	}
	p.teardown()
	p.started = false
	return nil
}

func (p *livePlatform) teardown() {
	if p.gwSrv != nil {
		p.gwSrv.Close()
		p.gwSrv = nil
	}
	if p.gw != nil {
		p.gw.Close()
		p.gw = nil
	}
	for id, tn := range p.nodes {
		tn.Stop()
		p.journals[id].Close()
	}
	p.nodes, p.journals = nil, nil
	p.removeDirs()
}

func (p *livePlatform) removeDirs() {
	for _, d := range p.dirs {
		os.RemoveAll(d)
	}
	p.dirs = nil
}

// isProbeTag reports whether a tag is in the engine's reserved probe
// range (see probeTagBase in engine.go).
func isProbeTag(tag uint64) bool { return tag >= probeTagBase }

func freePorts(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out[i] = l.Addr().String()
		l.Close()
	}
	return out, nil
}
