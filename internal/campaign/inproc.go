package campaign

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// killLeadIn is how far ahead of a kill its victim's disk starts dying
// under the group-commit barrier.
const killLeadIn = 60 * time.Millisecond

// inprocPlatform runs a cell on an in-process cluster of loopback TCP
// nodes (internal/cluster): the deployed transport, codec and journal,
// wall-clock time. It sits between the sim (no real concurrency) and the
// deployed stack (separate processes): races, sockets, timers and fsyncs
// are real, message loss is injected by the nemesis.Injector, the
// cell's interceptor.
//
// Every processor runs the deployed protocol (cluster.CoreConfig) and
// journals to a file in a per-cell temp dir, opened with the deployed
// options (cluster.JournalOptions) on a nemesis.DiskFaults that passes
// through until a kill arms it. A crash is real: the node stops and its
// journal closes, and the restart boots it again from that journal. A
// kill (nemesis.StepKill) abandons the journal under a failing disk
// instead. The sim backend has no process to stop and isolates a
// crashed processor (nemesis.ApplyToSim).
type inprocPlatform struct {
	inj     *nemesis.Injector
	c       *cluster.Cluster
	dir     string
	shards  *shard.Map
	rng     *rand.Rand // tears and tail losses of kills
	clients map[model.ProcID]*vnet.Client
	pending sync.WaitGroup // submissions awaiting their result

	// Per processor, the journal and disk of its running incarnation.
	// Boots and kills run on the goroutine that calls Start and Drive.
	journals map[model.ProcID]*durable.FileJournal
	disks    map[model.ProcID]*nemesis.DiskFaults
	// retired sums the counters of stopped incarnations, which Scrape
	// adds to the running nodes'.
	retired map[string]int64
	// restored counts boots from a journal that already held state;
	// torn and failedFsyncs count the faults the disks injected.
	restored, torn, failedFsyncs int

	mu      sync.Mutex
	results map[uint64]wire.ClientResult
	latency map[uint64]time.Duration
}

func (p *inprocPlatform) Name() string        { return BackendInproc }
func (p *inprocPlatform) Deterministic() bool { return false }

func (p *inprocPlatform) Start(cfg ClusterConfig) error {
	if p.c != nil {
		return fmt.Errorf("campaign/inproc: Start on a started platform")
	}
	dir, err := os.MkdirTemp("", "vp-inproc-")
	if err != nil {
		return fmt.Errorf("campaign/inproc: %w", err)
	}
	p.dir, p.shards = dir, cfg.Shards
	p.inj = nemesis.NewInjector(cfg.Seed)
	p.rng = rand.New(rand.NewSource(cfg.Seed ^ 0x6b696c6c39)) // "kill9"
	p.journals = make(map[model.ProcID]*durable.FileJournal, cfg.N)
	p.disks = make(map[model.ProcID]*nemesis.DiskFaults, cfg.N)
	p.retired = map[string]int64{}
	p.restored, p.torn, p.failedFsyncs = 0, 0, 0
	bc := cluster.Config{
		N:           cfg.N,
		Shards:      cfg.Shards,
		Core:        cluster.CoreConfig(cfg.Delta),
		Interceptor: p.inj,
		Journal:     p.openJournal,
		Trace:       true,
	}
	if cfg.Shards == nil {
		bc.Catalog = model.FullyReplicated(cfg.N, workload.Objects(cfg.Objects)...)
	}
	c, err := cluster.Start(bc)
	if err != nil {
		p.closeJournals()
		os.RemoveAll(dir)
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

// openJournal is the cluster's journal opener: processor id's file
// journal, opened with the deployed options (cluster.JournalOptions) on
// a fresh fault layer — what a kill left is on disk, not in the wrapper.
func (p *inprocPlatform) openJournal(id model.ProcID) (durable.Journal, *durable.State, error) {
	disk := nemesis.NewDiskFaults(nil)
	st, j, err := durable.OpenOptions(filepath.Join(p.dir, fmt.Sprint(id)), cluster.JournalOptions(disk, id, p.shards))
	if err != nil {
		return nil, nil, err
	}
	if !st.Fresh() {
		p.restored++
	}
	p.journals[id], p.disks[id] = j, disk
	return j, st, nil
}

// timelineEvent is one dated action of the merged drive timeline.
type timelineEvent struct {
	at   time.Duration
	txn  *workload.ScheduledTxn
	step *nemesis.Step
	// A kill arms fsync failures and a torn write on its victim's disk,
	// one of them killLeadIn ahead (the lead event). The first to bite
	// kills the journal, so the kills of a plan alternate which goes
	// first (tearFirst), and both get exercised.
	lead, tearFirst bool
}

// mergeTimeline interleaves a plan's transactions, probes and fault
// steps, each kill preceded by its lead event, into one time-ordered
// walk (stable, so same-instant faults keep schedule order).
func mergeTimeline(plan Plan) []timelineEvent {
	evs := make([]timelineEvent, 0, len(plan.Txns)+len(plan.Probes)+len(plan.Faults.Steps))
	for i := range plan.Txns {
		evs = append(evs, timelineEvent{at: plan.Txns[i].At, txn: &plan.Txns[i]})
	}
	for i := range plan.Probes {
		evs = append(evs, timelineEvent{at: plan.Probes[i].At, txn: &plan.Probes[i]})
	}
	kills := 0
	for i := range plan.Faults.Steps {
		st := &plan.Faults.Steps[i]
		ev := timelineEvent{at: st.At, step: st}
		if st.Kind == nemesis.StepKill {
			ev.tearFirst = kills%2 == 1
			kills++
			evs = append(evs, timelineEvent{at: max(0, st.At-killLeadIn), step: st, lead: true, tearFirst: ev.tearFirst})
		}
		evs = append(evs, ev)
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
		case ev.lead:
			p.armDisk(ev.step.Victim, ev.tearFirst)
		default:
			if err := p.fault(*ev.step, ev.tearFirst); err != nil {
				return fmt.Errorf("campaign/inproc: %s: %w", ev.step.Kind, err)
			}
		}
	}
	if d := plan.End - time.Since(origin); d > 0 {
		time.Sleep(d)
	}
	return nil
}

// fault realizes one schedule step. The injector takes the network
// faults. A crash stops the victim and closes its journal. A kill arms
// the disk fault its lead event did not, freezes the disk 5ms later,
// stops the victim, abandons its journal unsynced and loses what no
// fsync covered. A restart boots the victim again from its journal.
func (p *inprocPlatform) fault(st nemesis.Step, tearFirst bool) error {
	v := st.Victim
	switch {
	case p.inj.Apply(st):
	case st.Kind == nemesis.StepRestart:
		if p.c.Node(v) == nil {
			return p.c.Boot(v)
		}
	case p.c.Node(v) == nil: // down already
	case st.Kind == nemesis.StepCrash:
		j := p.journals[v]
		p.retire(v)
		return j.Close()
	case st.Kind == nemesis.StepKill:
		disk, j := p.disks[v], p.journals[v]
		p.armDisk(v, !tearFirst)
		time.Sleep(5 * time.Millisecond)
		disk.Crash()
		p.retire(v)
		j.HardCrash()
		_, err := disk.LoseUnsynced(p.rng)
		return err
	}
	return nil
}

// armDisk makes v's disk tear its next write or fail its fsyncs.
func (p *inprocPlatform) armDisk(v model.ProcID, tear bool) {
	switch disk := p.disks[v]; {
	case disk == nil: // down
	case tear:
		disk.TearNextWrite(p.rng.Intn(24))
	default:
		disk.FailFsync(true)
	}
}

// retire stops processor v and keeps its incarnation's counters.
func (p *inprocPlatform) retire(v model.ProcID) {
	tn := p.c.Node(v)
	p.c.StopNode(v)
	for k, n := range tn.Metrics().Counters() {
		p.retired[k] += n
	}
	p.torn += p.disks[v].TornWrites()
	p.failedFsyncs += p.disks[v].FsyncFailures()
	delete(p.journals, v)
	delete(p.disks, v)
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
	counters := maps.Clone(p.retired)
	for proc := range p.clients {
		if tn := p.c.Node(proc); tn != nil {
			for k, v := range tn.Metrics().Counters() {
				counters[k] += v
			}
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
	p.closeJournals()
	return os.RemoveAll(p.dir)
}

func (p *inprocPlatform) closeJournals() {
	for _, j := range p.journals {
		j.Close() //nolint:errcheck // teardown: the cell is judged already
	}
	clear(p.journals)
	clear(p.disks)
}
