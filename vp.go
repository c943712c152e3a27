// Package vp is a Go implementation of the virtual partitions replica
// control protocol of El Abbadi, Skeen & Cristian, "An Efficient,
// Fault-Tolerant Protocol for Replicated Data Management" (PODS 1985).
//
// A Cluster runs n processors, each holding physical copies of logical
// objects per a placement you configure (optionally weighted, per the
// paper's weighted-majority rule R1). Transactions — sequences of reads
// and read-modify-writes — execute with one-copy serializability under
// any number of omission and performance failures: network partitions,
// crashed processors, lost messages. Logical reads touch exactly one
// physical copy, the nearest in the current virtual partition, even
// while failures are present (rules R2/R3). A processor that rejoins
// receives only the writes it missed (the §6 log-based refresh), or a
// full copy where its peers' logs no longer reach back.
//
//	c, _ := vp.New(vp.Config{Nodes: 3, Objects: []vp.Object{{Name: "x"}}})
//	if err := c.Start(); err != nil { … }
//	defer c.Stop()
//	res, err := c.Do(1, vp.Increment("x", 1))
//
// The package runs the protocol in real time, one node per processor on
// loopback TCP with the deployed transport and codec, each over an
// in-memory journal; you inject failures with Partition, Crash, SetLink
// and Heal. The same protocol code runs deterministically under
// simulated time in the experiment harness (internal/bench,
// cmd/vpbench) and one process per processor (cmd/vpnode); this facade
// is the embeddable form.
package vp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/cluster"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Object describes one logical object and the placement of its copies.
type Object struct {
	Name string
	// Replicas lists the processors (1-based) holding a copy; empty
	// means every processor.
	Replicas []int
	// Weights optionally assigns voting weights to copies (processor →
	// weight, default 1). The object is accessible from a partition iff
	// the copies inside it hold a strict majority of the total weight.
	Weights map[int]int
}

// Config configures a cluster.
type Config struct {
	// Nodes is the number of processors, 1..64.
	Nodes int
	// Objects is the replicated database schema.
	Objects []Object
	// Delta is the assumed message-delay bound δ (default 5ms, for
	// loopback TCP). Timeouts and probe periods derive from it.
	Delta time.Duration
	// Pi is the probe period π (default 20δ). The liveness bound on
	// view convergence is π + 8δ.
	Pi time.Duration
	// InitValue is the initial value of every copy (default 0).
	InitValue int64
	// UsePrevOpt and WeakR4 enable the corresponding §6 optimizations.
	UsePrevOpt bool
	WeakR4     bool
	// MergeableCounters switches every object into the §7 commutative
	// update mode: ANY copy in a view makes an object accessible, so
	// even minority partitions keep accepting increments; writes must be
	// read-modify-write (use Increment/Transfer) and ship as per-writer
	// deltas; merges reconcile components so no increment is lost or
	// double-applied. Executions are NOT one-copy serializable across
	// partitions in this mode — CheckOneCopySR will report violations by
	// design; the invariant is convergence to the sum of committed
	// increments.
	MergeableCounters bool
	// Timeout bounds how long Do waits for a transaction outcome
	// (default 10s).
	Timeout time.Duration
}

// Op is one transaction operation. Build with Read, Write, Increment or
// Transfer.
type Op = wire.Op

// Read returns an operation reading obj.
func Read(obj string) Op { return wire.ReadOp(model.ObjectID(obj)) }

// Write returns an operation writing the constant v to obj.
func Write(obj string, v int64) Op { return wire.WriteOp(model.ObjectID(obj), v) }

// Increment returns the two operations reading obj and writing back its
// value plus delta.
func Increment(obj string, delta int64) []Op {
	return wire.IncrementOps(model.ObjectID(obj), delta)
}

// Transfer returns the four operations moving amount from object a to
// object b.
func Transfer(a, b string, amount int64) []Op {
	return wire.TransferOps(model.ObjectID(a), model.ObjectID(b), amount)
}

// Ops flattens operation fragments into one transaction body.
func Ops(fragments ...any) []Op {
	var out []Op
	for _, f := range fragments {
		switch v := f.(type) {
		case Op:
			out = append(out, v)
		case []Op:
			out = append(out, v...)
		default:
			panic(fmt.Sprintf("vp: Ops accepts Op or []Op, got %T", f))
		}
	}
	return out
}

// Result is a committed transaction's outcome.
type Result struct {
	// Reads maps each object the transaction read to the value it saw.
	Reads map[string]int64
}

// Error values returned by Do.
var (
	// ErrAborted: the transaction was aborted (conflict, failure, or a
	// partition change mid-flight). Retrying is safe and usual.
	ErrAborted = errors.New("vp: transaction aborted")
	// ErrUnavailable: a referenced object is not accessible from the
	// coordinator's current virtual partition (no majority of copies),
	// or the coordinator is between partitions. Retry after the
	// topology improves.
	ErrUnavailable = errors.New("vp: object or partition unavailable")
	// ErrTimeout: no outcome within Config.Timeout (or the outcome was
	// lost on its way back).
	ErrTimeout = errors.New("vp: transaction timed out")
	// ErrStopped: the cluster is stopped.
	ErrStopped = errors.New("vp: cluster stopped")
)

// Cluster is a running set of processors.
type Cluster struct {
	cfg  Config
	cat  *model.Catalog
	ccfg core.Config
	topo *net.Topology

	mu      sync.Mutex
	c       *cluster.Cluster
	clients map[model.ProcID]*net.Client
	nextTag uint64
	stopped bool
}

// New validates the configuration and builds a cluster. Call Start to
// run it.
func New(cfg Config) (*Cluster, error) {
	if cfg.Delta <= 0 {
		cfg.Delta = 5 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	topo, err := net.NewTopology(cfg.Nodes, cfg.Delta)
	if err != nil {
		return nil, fmt.Errorf("vp: Nodes: %w", err)
	}
	if len(cfg.Objects) == 0 {
		return nil, errors.New("vp: at least one Object is required")
	}
	placements := make([]model.Placement, len(cfg.Objects))
	for i, o := range cfg.Objects {
		if o.Name == "" {
			return nil, fmt.Errorf("vp: object %d has no name", i)
		}
		var holders model.ProcSet
		if len(o.Replicas) == 0 {
			for p := 1; p <= cfg.Nodes; p++ {
				holders.Add(model.ProcID(p))
			}
		} else {
			for _, p := range o.Replicas {
				if p < 1 || p > cfg.Nodes {
					return nil, fmt.Errorf("vp: object %q replica %d out of range", o.Name, p)
				}
				holders.Add(model.ProcID(p))
			}
		}
		var weights map[model.ProcID]int
		if len(o.Weights) > 0 {
			weights = make(map[model.ProcID]int, len(o.Weights))
			for p, w := range o.Weights {
				if w <= 0 {
					return nil, fmt.Errorf("vp: object %q has non-positive weight at %d", o.Name, p)
				}
				if !holders.Has(model.ProcID(p)) {
					return nil, fmt.Errorf("vp: object %q weights non-replica %d", o.Name, p)
				}
				weights[model.ProcID(p)] = w
			}
		}
		placements[i] = model.Placement{
			Object:  model.ObjectID(o.Name),
			Holders: holders,
			Weights: weights,
		}
	}
	return &Cluster{
		cfg:  cfg,
		cat:  model.NewCatalog(placements...),
		topo: topo,
		ccfg: core.Config{
			Config: node.Config{
				Delta:     cfg.Delta,
				InitValue: model.Value(cfg.InitValue),
				LogCap:    256,
			},
			Pi:            cfg.Pi,
			UsePrevOpt:    cfg.UsePrevOpt,
			UseLogCatchup: true,
			WeakR4:        cfg.WeakR4,
			Mergeable:     cfg.MergeableCounters,
		},
	}, nil
}

// Start launches the processors on loopback addresses, with the topology
// as every node's interceptor. The first common view forms within
// π + 8δ; Do retries internally are not performed — call WaitForView or
// simply retry. Start fails only when the nodes cannot listen.
func (c *Cluster) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.c != nil {
		panic("vp: double Start")
	}
	bc, err := cluster.Start(cluster.Config{N: c.cfg.Nodes, Catalog: c.cat, Core: c.ccfg, Interceptor: c.topo})
	if err != nil {
		return fmt.Errorf("vp: start: %w", err)
	}
	c.c = bc
	c.clients = make(map[model.ProcID]*net.Client, c.cfg.Nodes)
	for p, addr := range bc.Addrs() {
		c.clients[p] = net.NewClient(addr, time.Second)
	}
	return nil
}

// Stop shuts the cluster down. A Do still waiting returns ErrStopped.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.c == nil || c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	for _, cl := range c.clients {
		cl.Close()
	}
	c.c.Stop()
}

// Do executes a transaction with the given coordinator (1-based) and
// blocks until it commits, aborts, or times out.
func (c *Cluster) Do(coordinator int, fragments ...any) (Result, error) {
	ops := Ops(fragments...)
	c.mu.Lock()
	if c.c == nil || c.stopped {
		c.mu.Unlock()
		return Result{}, ErrStopped
	}
	cl := c.clients[model.ProcID(coordinator)]
	if cl == nil {
		c.mu.Unlock()
		return Result{}, fmt.Errorf("vp: no processor %d", coordinator)
	}
	c.nextTag++
	tag := c.nextTag
	c.mu.Unlock()

	res, err := cl.Submit(wire.ClientTxn{Tag: tag, Ops: ops}, c.cfg.Timeout)
	if err != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.stopped {
			return Result{}, ErrStopped
		}
		return Result{}, ErrTimeout
	}
	if res.Committed {
		out := Result{Reads: make(map[string]int64, len(res.Reads))}
		for _, rv := range res.Reads {
			out.Reads[string(rv.Obj)] = int64(rv.Val)
		}
		return out, nil
	}
	if res.Denied {
		return Result{}, fmt.Errorf("%w: %s", ErrUnavailable, res.Reason)
	}
	return Result{}, fmt.Errorf("%w: %s", ErrAborted, res.Reason)
}

// DoRetry runs Do, retrying aborted or unavailable transactions with the
// given gap until the deadline elapses.
func (c *Cluster) DoRetry(coordinator int, deadline time.Duration, fragments ...any) (Result, error) {
	ops := Ops(fragments...)
	start := time.Now()
	for {
		res, err := c.Do(coordinator, ops)
		if err == nil || errors.Is(err, ErrStopped) {
			return res, err
		}
		if time.Since(start) > deadline {
			return res, err
		}
		time.Sleep(c.cfg.Delta * 4)
	}
}

// Partition splits the network into the given groups of processors;
// processors in different groups cannot communicate, processors omitted
// from every group are isolated.
func (c *Cluster) Partition(groups ...[]int) {
	conv := make([][]model.ProcID, len(groups))
	for i, g := range groups {
		conv[i] = make([]model.ProcID, len(g))
		for j, p := range g {
			conv[i][j] = model.ProcID(p)
		}
	}
	c.topo.Partition(conv...)
}

// Crash isolates one processor (its node keeps running but cannot
// communicate, the paper's crash model).
func (c *Cluster) Crash(p int) { c.topo.Crash(model.ProcID(p)) }

// Heal restores full connectivity.
func (c *Cluster) Heal() { c.topo.FullMesh() }

// SetLink connects or disconnects one link, for building non-transitive
// communication graphs like the paper's Figure 1.
func (c *Cluster) SetLink(a, b int, up bool) {
	c.topo.SetLink(model.ProcID(a), model.ProcID(b), up)
}

// View returns the processors in p's current view and whether p is
// currently assigned to a virtual partition.
func (c *Cluster) View(p int) ([]int, bool) {
	view, _, assigned := c.state(model.ProcID(p))
	out := make([]int, 0, view.Len())
	for _, q := range view.Sorted() {
		out = append(out, int(q))
	}
	return out, assigned
}

// state reads p's view, partition and assignment inside a turn of its
// node, where the handler's state is not being written. A processor that
// is not running reads as unassigned with an empty view.
func (c *Cluster) state(p model.ProcID) (view model.ProcSet, id model.VPID, assigned bool) {
	c.mu.Lock()
	bc := c.c
	c.mu.Unlock()
	if bc == nil {
		return 0, id, false
	}
	tn := bc.Node(p)
	if tn == nil {
		return 0, id, false
	}
	nd := bc.Handler(p).(*core.Node)
	tn.Post(func(net.Runtime) {
		view, id, assigned = nd.View(), nd.CurID(), nd.Assigned()
	})
	return view, id, assigned
}

// ConvergenceBound returns π + 8δ, the paper's bound on how long views
// take to reflect a stable topology.
func (c *Cluster) ConvergenceBound() time.Duration {
	pi := c.cfg.Pi
	if pi <= 0 {
		pi = 20 * c.cfg.Delta
	}
	return pi + 8*c.cfg.Delta
}

// WaitForView blocks until every listed processor is assigned to one
// common virtual partition whose view is exactly that set, or the
// timeout elapses. It returns whether convergence was observed; a
// processor outside 1..Nodes never converges.
func (c *Cluster) WaitForView(timeout time.Duration, procs ...int) bool {
	var want model.ProcSet
	for _, p := range procs {
		if p < 1 || p > c.cfg.Nodes {
			return false
		}
		want.Add(model.ProcID(p))
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.viewsConverged(want) {
			return true
		}
		time.Sleep(c.cfg.Delta)
	}
	return c.viewsConverged(want)
}

func (c *Cluster) viewsConverged(want model.ProcSet) bool {
	var id model.VPID
	first := true
	for _, p := range want.Sorted() {
		view, pid, assigned := c.state(p)
		if !assigned || view != want {
			return false
		}
		if first {
			id, first = pid, false
		} else if pid != id {
			return false
		}
	}
	return true
}

// CheckOneCopySR verifies the committed history so far against one-copy
// serializability (exact check up to 63 committed transactions, then the
// multiversion graph certificate). It returns nil when the history is
// 1SR.
func (c *Cluster) CheckOneCopySR() error {
	committed := c.history().Committed()
	var r onecopy.Result
	if len(committed) <= 63 {
		r = onecopy.CheckRecords(committed)
	} else {
		r = onecopy.CheckGraphRecords(committed)
	}
	if !r.OK {
		return fmt.Errorf("vp: history not one-copy serializable: %s", r.Reason)
	}
	return nil
}

// Committed returns the number of committed transactions so far.
func (c *Cluster) Committed() int { return len(c.history().Committed()) }

// history returns the running cluster's history; before Start, an empty
// one.
func (c *Cluster) history() *onecopy.History {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.c == nil {
		return onecopy.NewHistory()
	}
	return c.c.History()
}
