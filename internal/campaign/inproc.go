package campaign

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// inprocPlatform runs a cell on an in-process cluster of loopback TCP
// nodes (internal/cluster): the deployed transport and codec, every node
// on an in-memory journal, wall-clock time. It sits between the sim (no
// real concurrency) and the deployed stack (separate processes): races,
// sockets and timers are real, message loss is injected. Crash/restart —
// which the nemesis.Injector deliberately does not model — cut and
// restore the victim's links in a Topology, the paper's crashed
// processor as a trivial communication cluster; every send consults that
// cut first, then the injector's network faults.
type inprocPlatform struct {
	topo    *vnet.Topology
	inj     *nemesis.Injector
	c       *cluster.Cluster
	clients map[model.ProcID]*vnet.Client
	pending sync.WaitGroup // submissions awaiting their result

	mu      sync.Mutex
	results map[uint64]wire.ClientResult
	latency map[uint64]time.Duration
}

// crashCut is the cell's interceptor: the topology's crash cut, then the
// injector.
type crashCut struct {
	topo *vnet.Topology
	inj  *nemesis.Injector
}

func (f crashCut) Outbound(from, to model.ProcID, m wire.Message) vnet.Verdict {
	if v := f.topo.Outbound(from, to, m); v.Drop {
		return v
	}
	return f.inj.Outbound(from, to, m)
}

func (p *inprocPlatform) Name() string        { return BackendInproc }
func (p *inprocPlatform) Deterministic() bool { return false }

func (p *inprocPlatform) Start(cfg ClusterConfig) error {
	if p.c != nil {
		return fmt.Errorf("campaign/inproc: Start on a started platform")
	}
	objs := workload.Objects(cfg.Objects)
	p.topo = vnet.NewTopology(cfg.N, cfg.Delta)
	p.inj = nemesis.NewInjector(cfg.Seed)
	bc := cluster.Config{
		N:           cfg.N,
		Core:        core.Config{Config: node.Config{Delta: cfg.Delta, LogCap: 256}, UseLogCatchup: true, UsePrevOpt: true},
		Interceptor: crashCut{p.topo, p.inj},
		Trace:       true,
	}
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
		bc.Shards = m
	} else {
		bc.Catalog = model.FullyReplicated(cfg.N, objs...)
	}
	c, err := cluster.Start(bc)
	if err != nil {
		return fmt.Errorf("campaign/inproc: %w", err)
	}
	p.c = c
	p.clients = make(map[model.ProcID]*vnet.Client, cfg.N)
	for proc, addr := range c.Addrs() {
		p.clients[proc] = vnet.NewClient(addr, time.Second)
	}
	p.results = make(map[uint64]wire.ClientResult)
	p.latency = make(map[uint64]time.Duration)
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
	if p.c == nil {
		return fmt.Errorf("campaign/inproc: Drive before Start")
	}
	origin := time.Now()
	for _, ev := range mergeTimeline(plan) {
		if d := ev.at - time.Since(origin); d > 0 {
			time.Sleep(d)
		}
		switch {
		case ev.txn != nil:
			p.submit(ev.txn.Txn)
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
	if d := plan.End - time.Since(origin); d > 0 {
		time.Sleep(d)
	}
	return nil
}

// submit sends t to its coordinator and records the result, and the
// commit latency, from a goroutine of its own. A submission that gets no
// result (within a minute, or before Stop) records nothing: a lost
// result is an omission.
func (p *inprocPlatform) submit(t workload.Txn) {
	cl := p.clients[t.Coordinator]
	p.pending.Add(1)
	go func() {
		defer p.pending.Done()
		began := time.Now()
		res, err := cl.Submit(t.Request, time.Minute)
		if err != nil {
			return
		}
		lat := time.Since(began)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.results[res.Tag] = res
		if res.Committed {
			p.latency[res.Tag] = lat
		}
	}()
}

func (p *inprocPlatform) Scrape() (*Snapshot, error) {
	if p.c == nil {
		return nil, fmt.Errorf("campaign/inproc: Scrape before Start")
	}
	counters := map[string]int64{}
	for proc := range p.clients {
		for k, v := range p.c.Node(proc).Metrics().Counters() {
			counters[k] += v
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Snapshot{
		Counters: counters,
		Events:   p.c.Tracer().Events(),
		Hist:     p.c.History(),
		Results:  maps.Clone(p.results),
		Latency:  maps.Clone(p.latency),
	}, nil
}

func (p *inprocPlatform) Stop() error {
	if p.c == nil {
		return nil
	}
	for _, cl := range p.clients {
		cl.Close()
	}
	p.pending.Wait()
	p.c.Stop()
	p.c = nil
	return nil
}
