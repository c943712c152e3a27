package campaign

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// inprocPlatform runs a cell on net.RealCluster: the same core.Node
// handlers on wall-clock time, goroutine mailboxes and in-memory
// delivery. It sits between the sim (no real concurrency) and the
// deployed stack (real sockets): races and timer behavior are real,
// message loss is injected. Network faults go through a
// nemesis.Injector attached as the cluster's Interceptor; crash/restart
// — which the injector deliberately does not model — are approximated
// by cutting the victim's links in the Topology, since a RealCluster
// node cannot be stopped individually.
type inprocPlatform struct {
	topo    *vnet.Topology
	c       *vnet.RealCluster
	rec     *trace.Recorder
	hist    *onecopy.History
	inj     *nemesis.Injector
	started bool

	mu        sync.Mutex
	results   map[uint64]wire.ClientResult
	latency   map[uint64]time.Duration
	submitted map[uint64]time.Duration
	origin    time.Time
}

func (p *inprocPlatform) Name() string        { return BackendInproc }
func (p *inprocPlatform) Deterministic() bool { return false }

func (p *inprocPlatform) Start(cfg ClusterConfig) error {
	if p.started {
		return fmt.Errorf("campaign/inproc: Start on a started platform")
	}
	objs := workload.Objects(cfg.Objects)
	p.topo = vnet.NewTopology(cfg.N, cfg.Delta/4)
	p.c = vnet.NewRealCluster(p.topo)
	p.rec = trace.New(1 << 18)
	p.rec.SetEnabled(true)
	p.hist = onecopy.NewHistory()
	p.inj = nemesis.NewInjector(cfg.Seed)
	p.c.Icpt = p.inj
	ccfg := core.Config{Config: node.Config{Delta: cfg.Delta, LogCap: 256}, UseLogCatchup: true, UsePrevOpt: true}
	if cfg.Shards > 1 {
		// Sharded cell: every node is a shard.Router over the same
		// deterministic map — each hosted shard runs its own VP
		// lifecycle, multi-shard transactions 2PC across shards.
		m, err := shard.NewMap(shard.Config{
			Shards: cfg.Shards, Replicas: cfg.ShardReplicas, Seed: cfg.Seed,
			Procs: p.topo.Procs(), Objects: objs,
		})
		if err != nil {
			return fmt.Errorf("campaign/inproc: shard map: %w", err)
		}
		cat := m.Catalog()
		for _, obj := range cat.Objects() {
			p.rec.Record(trace.Event{Kind: trace.EvPlacement, Obj: obj, Procs: cat.Copies(obj).Sorted()})
		}
		p.c.Rec = p.rec
		for _, proc := range p.topo.Procs() {
			p.c.AddNode(proc, shard.NewRouter(proc, ccfg, m, p.hist))
		}
	} else {
		cat := model.FullyReplicated(cfg.N, objs...)
		for _, obj := range cat.Objects() {
			p.rec.Record(trace.Event{Kind: trace.EvPlacement, Obj: obj, Procs: cat.Copies(obj).Sorted()})
		}
		p.c.Rec = p.rec
		for _, proc := range p.topo.Procs() {
			p.c.AddNode(proc, core.New(proc, ccfg, cat, p.hist))
		}
	}
	p.results = make(map[uint64]wire.ClientResult)
	p.latency = make(map[uint64]time.Duration)
	p.submitted = make(map[uint64]time.Duration)
	p.c.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		at := time.Since(p.origin)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.results[res.Tag] = res
		if res.Committed {
			if sub, ok := p.submitted[res.Tag]; ok {
				if lat := at - sub; lat > 0 {
					p.latency[res.Tag] = lat
				}
			}
		}
	}
	p.c.Start()
	p.started = true
	return nil
}

// timelineEvent is one dated action of the merged drive timeline.
type timelineEvent struct {
	at   time.Duration
	txn  *workload.ScheduledTxn
	step *nemesis.Step
}

// mergeTimeline interleaves a plan's transactions, probes and fault
// steps into one time-ordered walk (stable, so same-instant faults keep
// schedule order).
func mergeTimeline(plan Plan) []timelineEvent {
	evs := make([]timelineEvent, 0, len(plan.Txns)+len(plan.Probes)+len(plan.Faults.Steps))
	for i := range plan.Txns {
		evs = append(evs, timelineEvent{at: plan.Txns[i].At, txn: &plan.Txns[i]})
	}
	for i := range plan.Probes {
		evs = append(evs, timelineEvent{at: plan.Probes[i].At, txn: &plan.Probes[i]})
	}
	for i := range plan.Faults.Steps {
		evs = append(evs, timelineEvent{at: plan.Faults.Steps[i].At, step: &plan.Faults.Steps[i]})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

func (p *inprocPlatform) Drive(plan Plan) error {
	if !p.started {
		return fmt.Errorf("campaign/inproc: Drive before Start")
	}
	p.mu.Lock()
	for _, s := range plan.Txns {
		p.submitted[s.Txn.Request.Tag] = s.At
	}
	for _, s := range plan.Probes {
		p.submitted[s.Txn.Request.Tag] = s.At
	}
	p.origin = time.Now()
	p.mu.Unlock()

	for _, ev := range mergeTimeline(plan) {
		if d := ev.at - time.Since(p.origin); d > 0 {
			time.Sleep(d)
		}
		switch {
		case ev.txn != nil:
			p.c.Submit(ev.txn.Txn.Coordinator, ev.txn.Txn.Request)
		case ev.step != nil:
			if p.inj.Apply(*ev.step) {
				continue
			}
			switch ev.step.Kind {
			case nemesis.StepCrash:
				p.topo.Crash(ev.step.Victim)
			case nemesis.StepRestart:
				p.topo.Recover(ev.step.Victim)
			}
		}
	}
	if d := plan.End - time.Since(p.origin); d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (p *inprocPlatform) Scrape() (*Snapshot, error) {
	if !p.started {
		return nil, fmt.Errorf("campaign/inproc: Scrape before Start")
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
		Counters: p.c.Reg.Counters(),
		Events:   p.rec.Events(),
		Hist:     p.hist,
		Results:  results,
		Latency:  latency,
	}, nil
}

func (p *inprocPlatform) Stop() error {
	if !p.started {
		return nil
	}
	p.c.Stop()
	p.started = false
	return nil
}
