// Package cluster is the one place a processor is built. NewNode puts
// one processor on a net.TCPNode, running the handler of its layer's one
// constructor — core.New, or shard.NewRouter given a shard map — over a
// journal; CoreConfig and JournalOptions are the protocol and the
// journal every deployed node runs, and ParseAddrs reads the -cluster
// flag. cmd/vpnode boots its one processor through NewNode.
//
// Start assembles an in-process cluster of such processors on loopback,
// all sharing one one-copy history, one trace recorder and one
// interceptor: the deployed transport, codec and boot, minus the process
// boundary. The public vp.Cluster, the campaign's inproc backend (file
// journals, real crashes: StopNode, then Boot from the journal) and the
// live-cluster tests start their clusters here.
package cluster

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
)

// Config describes a cluster of processors 1..N.
type Config struct {
	// N is the number of processors.
	N int
	// Catalog places the objects. Ignored when Shards is set.
	Catalog *model.Catalog
	// Shards, when set, makes every processor a shard.Router over this
	// map, whose catalog places the objects.
	Shards *shard.Map
	// Core configures every processor's protocol.
	Core core.Config
	// Interceptor, when set, is consulted on every remote send of every
	// node: the net.Topology that holds the cluster's network faults.
	Interceptor net.Interceptor
	// Journal opens processor p's journal at every boot and returns it
	// with its replayed state, from which the constructor decides fresh
	// versus restored. The caller owns, and closes, what it opens. Nil
	// gives every boot a fresh journal in memory (see node.NewBase).
	Journal func(p model.ProcID) (durable.Journal, *durable.State, error)
	// Trace records the placement of every object and every node's
	// protocol events into one shared recorder (Tracer).
	Trace bool
	// Observer, when set, receives each node's core.JoinEvent,
	// DepartEvent and HaltEvent with the processor and the shard it
	// happened at (model.NoShard unsharded; a sharded processor reports
	// every hosted shard's), from the node's handler turn.
	Observer func(p model.ProcID, s model.ShardID, ev any)
}

// Cluster is a running in-process cluster.
type Cluster struct {
	cfg   Config
	addrs map[model.ProcID]string
	hist  *onecopy.History
	rec   *trace.Recorder

	mu       sync.Mutex
	nodes    map[model.ProcID]*net.TCPNode // running processors only
	handlers map[model.ProcID]net.Handler
}

// Start boots every processor and returns the running cluster.
func Start(cfg Config) (*Cluster, error) {
	cat := cfg.Catalog
	if cfg.Shards != nil {
		cat = cfg.Shards.Catalog()
	}
	if cfg.N < 1 || cat == nil {
		return nil, fmt.Errorf("cluster: need N >= 1 and a catalog or shard map (N=%d)", cfg.N)
	}
	ports, err := net.LoopbackAddrs(cfg.N)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		addrs:    make(map[model.ProcID]string, cfg.N),
		hist:     onecopy.NewHistory(),
		nodes:    make(map[model.ProcID]*net.TCPNode, cfg.N),
		handlers: make(map[model.ProcID]net.Handler, cfg.N),
	}
	for i, addr := range ports {
		c.addrs[model.ProcID(i+1)] = addr
	}
	if cfg.Trace {
		c.rec = trace.New(1 << 18)
		c.rec.SetEnabled(true)
		for _, obj := range cat.Objects() {
			c.rec.Record(trace.Event{Kind: trace.EvPlacement, Obj: obj, Procs: cat.Copies(obj)})
		}
	}
	for p := model.ProcID(1); int(p) <= cfg.N; p++ {
		if err := c.Boot(p); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// Boot starts processor p: it opens p's journal, builds p from the
// replayed state (NewNode) and serves it at p's address. p must not be
// running.
func (c *Cluster) Boot(p model.ProcID) error {
	if c.Node(p) != nil {
		return fmt.Errorf("cluster: %v is running", p)
	}
	var j durable.Journal
	var st *durable.State
	if c.cfg.Journal != nil {
		var err error
		if j, st, err = c.cfg.Journal(p); err != nil {
			return fmt.Errorf("cluster: journal of %v: %w", p, err)
		}
	}
	tn, h := NewNode(c.cfg, p, c.addrs, c.hist, c.rec, j, st)
	if err := tn.Run(); err != nil {
		return fmt.Errorf("cluster: start %v: %w", p, err)
	}
	c.mu.Lock()
	c.nodes[p], c.handlers[p] = tn, h
	c.mu.Unlock()
	return nil
}

// NewNode builds processor p of the cluster cfg describes, to serve at
// addrs[p] once Run: the handler of its layer's one constructor —
// core.New, or shard.NewRouter when cfg.Shards is set — over journal j
// (nil: a fresh journal in memory) and its replayed state st,
// recording into hist; cfg's Observer and Interceptor and the recorder
// rec installed (each may be nil); node.halted exported at 0 and, over
// a file journal, the journal's counters and replay time exported in
// the node's registry. cfg.N and cfg.Journal are Start's and Boot's.
func NewNode(cfg Config, p model.ProcID, addrs map[model.ProcID]string, hist *onecopy.History,
	rec *trace.Recorder, j durable.Journal, st *durable.State) (*net.TCPNode, net.Handler) {
	obs := cfg.Observer
	var h net.Handler
	if cfg.Shards != nil {
		r := shard.NewRouter(p, cfg.Core, cfg.Shards, hist, j, st)
		if obs != nil {
			r.Observer = func(s model.ShardID, ev any) { obs(p, s, ev) }
		}
		h = r
	} else {
		nd := core.New(p, cfg.Core, cfg.Catalog, hist, j, st)
		if obs != nil {
			nd.Observer = func(ev any) { obs(p, model.NoShard, ev) }
		}
		h = nd
	}
	tn := net.NewTCPNode(p, addrs, h)
	tn.SetTracer(rec)
	tn.SetInterceptor(cfg.Interceptor)
	reg := tn.Metrics()
	reg.Set(metrics.CNodeHalted, 0) // exported from the first scrape on
	if fj, ok := j.(*durable.FileJournal); ok {
		fj.SetMetrics(reg)
		reg.ObserveDuration(metrics.SRecovery, fj.Recovery().Duration)
	}
	return tn, h
}

// CoreConfig is the protocol every deployed processor runs: π at its
// default 20δ, R5 refresh by streaming missed-write deltas (full-copy
// fallback), the previous-partition optimization on.
func CoreConfig(delta time.Duration) core.Config {
	return core.Config{
		Config:        node.Config{Delta: delta, LogCap: 1024},
		UseLogCatchup: true,
		UsePrevOpt:    true,
	}
}

// JournalOptions is how every deployed processor p opens its file
// journal on fs (nil: the real filesystem): with a committer goroutine,
// so promises nobody waits on (decide acks) ride the next urgent fsync
// or wait at most 2ms. Sharded, the journal is scoped to the objects of
// p's hosted shards: snapshots then attest the universe they covered, so
// restarting under a grown shard map can't mistake "never hosted" for
// "no writes" when serving R5 catch-up deltas.
func JournalOptions(fs durable.VFS, p model.ProcID, m *shard.Map) durable.Options {
	opts := durable.Options{FS: fs, Committer: true, FlushInterval: 2 * time.Millisecond}
	if m != nil {
		hosted := m.HostedObjects(p)
		opts.Scope = []model.ObjectID{}
		for _, obj := range m.Catalog().Objects() {
			if hosted(obj) {
				opts.Scope = append(opts.Scope, obj)
			}
		}
	}
	return opts
}

// ParseAddrs parses a -cluster flag: comma-separated id=host:port pairs.
func ParseAddrs(s string) (map[model.ProcID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-cluster is required")
	}
	out := make(map[model.ProcID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -cluster entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err == nil {
			err = model.CheckProc(model.ProcID(id))
		}
		if err != nil {
			return nil, fmt.Errorf("bad processor id %q in -cluster: %w", kv[0], err)
		}
		out[model.ProcID(id)] = kv[1]
	}
	return out, nil
}

// StopNode stops processor p's node, as a crash would: its handler's
// state is gone, its journal is the caller's to close or abandon, and
// Boot restarts it.
func (c *Cluster) StopNode(p model.ProcID) {
	c.mu.Lock()
	tn := c.nodes[p]
	delete(c.nodes, p)
	c.mu.Unlock()
	if tn != nil {
		tn.Stop()
	}
}

// Stop stops every running node.
func (c *Cluster) Stop() {
	for p := model.ProcID(1); int(p) <= c.cfg.N; p++ {
		c.StopNode(p)
	}
}

// Addrs returns every processor's client and peer address.
func (c *Cluster) Addrs() map[model.ProcID]string { return maps.Clone(c.addrs) }

// Node returns processor p's running node, or nil while it is stopped.
func (c *Cluster) Node(p model.ProcID) *net.TCPNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[p]
}

// Handler returns the protocol handler p last booted with: a *core.Node,
// or a *shard.Router for a sharded cluster. Read its state inside a turn
// of the node (TCPNode.Post).
func (c *Cluster) Handler(p model.ProcID) net.Handler {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handlers[p]
}

// History returns the one-copy history every processor records into.
func (c *Cluster) History() *onecopy.History { return c.hist }

// Tracer returns the shared trace recorder, nil unless Config.Trace.
func (c *Cluster) Tracer() *trace.Recorder { return c.rec }
