// Package bench is the experiment harness: it builds clusters for any of
// the implemented replica control protocols, drives workloads and fault
// schedules over the deterministic simulation, collects the metrics the
// paper's claims are about (physical accesses and messages per logical
// operation, availability, staleness, convergence, abort rates), and
// renders the tables reproduced in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"time"

	"github.com/virtualpartitions/vp/internal/baseline/missingwrites"
	"github.com/virtualpartitions/vp/internal/baseline/naive"
	"github.com/virtualpartitions/vp/internal/baseline/rowa"
	"github.com/virtualpartitions/vp/internal/baseline/voting"
	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// Protocol selects a replica control protocol for a run.
type Protocol string

// The comparable protocols.
const (
	ProtoVP          Protocol = "virtual-partitions"
	ProtoQuorum      Protocol = "quorum"       // Gifford, minimal quorums
	ProtoQuorumEager Protocol = "quorum-eager" // Gifford, contact-all
	ProtoROWA        Protocol = "rowa"
	ProtoMW          Protocol = "missing-writes"
	ProtoNaive       Protocol = "naive-views"
)

// Spec describes a cluster to build.
type Spec struct {
	Protocol Protocol
	N        int
	// Objects is the number of logical objects; each is replicated at
	// Replication processors chosen round-robin (0 = all processors).
	Objects     int
	Replication int
	Seed        int64
	Delta       time.Duration
	Pi          time.Duration
	// VP options (§6).
	UsePrevOpt    bool
	UseLogCatchup bool
	WeakR4        bool
	Mergeable     bool
	LogCap        int
	// CustomCatalog overrides the generated placement (Example 2 uses
	// the paper's weighted copy table).
	CustomCatalog *model.Catalog
}

func (s Spec) withDefaults() Spec {
	if s.N == 0 {
		s.N = 5
	}
	if s.Objects == 0 {
		s.Objects = 10
	}
	if s.Delta == 0 {
		s.Delta = 2 * time.Millisecond
	}
	if s.Pi == 0 {
		s.Pi = 20 * s.Delta
	}
	if s.LogCap == 0 {
		s.LogCap = 256
	}
	return s
}

// Catalog builds the placement for a spec.
func (s Spec) Catalog() *model.Catalog {
	s = s.withDefaults()
	if s.CustomCatalog != nil {
		return s.CustomCatalog
	}
	objs := workload.Objects(s.Objects)
	if s.Replication <= 0 || s.Replication >= s.N {
		return model.FullyReplicated(s.N, objs...)
	}
	pls := make([]model.Placement, len(objs))
	for i, o := range objs {
		holders := model.NewProcSet()
		for k := 0; k < s.Replication; k++ {
			holders.Add(model.ProcID((i+k)%s.N + 1))
		}
		pls[i] = model.Placement{Object: o, Holders: holders}
	}
	return model.NewCatalog(pls...)
}

// Runner drives one simulated cluster.
type Runner struct {
	Spec    Spec
	Topo    *net.Topology
	Cluster *net.SimCluster
	Cat     *model.Catalog
	Hist    *onecopy.History

	vpNodes    map[model.ProcID]*core.Node  // only for ProtoVP
	naiveNodes map[model.ProcID]*naive.Node // only for ProtoNaive

	results   map[uint64]wire.ClientResult
	latencies map[uint64]time.Duration // commit latency per tag
	submitted map[uint64]time.Duration
	roTag     map[uint64]bool
}

// NewRunner builds a cluster per the spec.
func NewRunner(spec Spec) *Runner {
	spec = spec.withDefaults()
	// Link latency well under δ: the protocol's timing model assumes
	// messages arrive within δ, and the simulation must honor it with
	// slack for multi-hop exchanges inside one window.
	topo, err := net.NewTopology(spec.N, spec.Delta/4)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	cat := spec.Catalog()
	r := &Runner{
		Spec:       spec,
		Topo:       topo,
		Cluster:    net.NewSimCluster(topo, spec.Seed),
		Cat:        cat,
		Hist:       onecopy.NewHistory(),
		vpNodes:    make(map[model.ProcID]*core.Node),
		naiveNodes: make(map[model.ProcID]*naive.Node),
		results:    make(map[uint64]wire.ClientResult),
		latencies:  make(map[uint64]time.Duration),
		submitted:  make(map[uint64]time.Duration),
		roTag:      make(map[uint64]bool),
	}
	ncfg := node.Config{Delta: spec.Delta, LogCap: spec.LogCap}
	for _, p := range topo.Procs() {
		var h net.Handler
		switch spec.Protocol {
		case ProtoVP:
			ccfg := core.Config{
				Config:        ncfg,
				Pi:            spec.Pi,
				UsePrevOpt:    spec.UsePrevOpt,
				UseLogCatchup: spec.UseLogCatchup,
				WeakR4:        spec.WeakR4,
				Mergeable:     spec.Mergeable,
			}
			nd := core.New(p, ccfg, cat, r.Hist, nil, nil)
			r.vpNodes[p] = nd
			h = nd
		case ProtoQuorum:
			h = voting.New(p, ncfg, cat, r.Hist, voting.Options{})
		case ProtoQuorumEager:
			h = voting.New(p, ncfg, cat, r.Hist, voting.Options{Eager: true})
		case ProtoROWA:
			h = rowa.New(p, ncfg, cat, r.Hist)
		case ProtoMW:
			h = missingwrites.New(p, ncfg, cat, r.Hist, 0)
		case ProtoNaive:
			nd := naive.New(p, ncfg, cat, r.Hist, model.NewProcSet(topo.Procs()...))
			r.naiveNodes[p] = nd
			h = nd
		default:
			panic(fmt.Sprintf("bench: unknown protocol %q", spec.Protocol))
		}
		r.Cluster.AddNode(p, h)
	}
	r.Cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		r.results[res.Tag] = res
		if res.Committed {
			r.latencies[res.Tag] = r.Cluster.Engine.Now() - r.submitted[res.Tag]
		}
	}
	r.Cluster.Start()
	return r
}

// EnableTrace installs and enables a structured event recorder on the
// cluster (capacity 0 = trace.DefaultCap) and seeds it with one
// EvPlacement event per catalog object, so trace-replay checkers can
// verify the access rules R2/R3 against the actual copy placement.
// Tracing is pure observation: it never perturbs the simulation's
// scheduling or randomness, so a traced run and an untraced run of the
// same seed produce identical histories.
func (r *Runner) EnableTrace(capacity int) *trace.Recorder {
	if capacity <= 0 {
		capacity = trace.DefaultCap
	}
	rec := trace.New(capacity)
	rec.SetEnabled(true)
	r.Cluster.Rec = rec
	for _, obj := range r.Cat.Objects() {
		rec.Record(trace.Event{Kind: trace.EvPlacement, Obj: obj, Procs: r.Cat.Copies(obj)})
	}
	return rec
}

// VPNode returns the core node at p (nil for other protocols).
func (r *Runner) VPNode(p model.ProcID) *core.Node { return r.vpNodes[p] }

// NaiveNode returns the naive node at p (nil for other protocols).
func (r *Runner) NaiveNode(p model.ProcID) *naive.Node { return r.naiveNodes[p] }

// ResultFor returns the client result for a tag (zero value while the
// transaction is still pending).
func (r *Runner) ResultFor(tag uint64) wire.ClientResult { return r.results[tag] }

// Results returns a copy of every client result received so far, keyed
// by tag. Safe to mutate; call between Run calls (the simulation is
// single-threaded).
func (r *Runner) Results() map[uint64]wire.ClientResult {
	out := make(map[uint64]wire.ClientResult, len(r.results))
	for k, v := range r.results {
		out[k] = v
	}
	return out
}

// Latencies returns a copy of the commit latency per committed tag,
// measured in virtual time from the transaction's submission.
func (r *Runner) Latencies() map[uint64]time.Duration {
	out := make(map[uint64]time.Duration, len(r.latencies))
	for k, v := range r.latencies {
		out[k] = v
	}
	return out
}

// WarmUp runs the cluster until views have formed: the liveness bound
// plus one probe period, or a fixed small interval for view-free
// protocols.
func (r *Runner) WarmUp() time.Duration {
	d := r.Spec.Pi + 8*r.Spec.Delta + r.Spec.Pi
	r.Cluster.Run(d)
	return d
}

// Submit schedules one transaction.
func (r *Runner) Submit(at time.Duration, t workload.Txn) {
	r.submitted[t.Request.Tag] = at
	r.roTag[t.Request.Tag] = t.ReadOnly
	r.Cluster.Submit(at, t.Coordinator, t.Request)
}

// Load schedules a whole workload.
func (r *Runner) Load(sched []workload.ScheduledTxn) {
	for _, s := range sched {
		r.Submit(s.At, s.Txn)
	}
}

// ApplyFaults schedules a fault plan.
func (r *Runner) ApplyFaults(plan []workload.Fault) {
	for _, f := range plan {
		f := f
		switch f.Kind {
		case workload.FaultPartition:
			r.Cluster.At(f.At, "fault-partition", func() { r.Topo.Partition(f.Groups...) })
		case workload.FaultCrash:
			r.Cluster.At(f.At, "fault-crash", func() { r.Topo.Crash(f.Victim) })
		case workload.FaultHeal:
			r.Cluster.At(f.At, "fault-heal", func() { r.Topo.FullMesh() })
		}
	}
}

// Run advances the simulation.
func (r *Runner) Run(until time.Duration) { r.Cluster.Run(until) }

// Result aggregates a run's outcome.
type Result struct {
	Protocol  Protocol
	Submitted int
	Committed int
	Aborted   int
	Denied    int
	Pending   int

	// Cost per logical operation, counted over the whole run.
	PhysReadsPerLogicalRead   float64
	PhysWritesPerLogicalWrite float64
	MsgsPerCommit             float64
	// TxnMsgsPerCommit excludes view-management traffic (probes, acks,
	// invitations, commits): the per-transaction protocol cost.
	TxnMsgsPerCommit float64

	MeanLatencyMs float64
	P95LatencyMs  float64

	// Availability is committed / submitted.
	Availability float64
	// ReadOnlyAvailability restricted to read-only transactions.
	ReadOnlyAvailability float64

	// StaleReads counts committed reads that observed a version older
	// than the newest version committed before them (history order).
	StaleReads int

	// OneCopySR is the graph-checker verdict over the history.
	OneCopySR bool
}

// Stats computes the run's result.
func (r *Runner) Stats() Result {
	reg := r.Cluster.Reg
	res := Result{
		Protocol:  r.Spec.Protocol,
		Submitted: len(r.submitted),
	}
	roSubmitted, roCommitted := 0, 0
	var latSum float64
	var lats []float64
	for tag := range r.submitted {
		out, ok := r.results[tag]
		switch {
		case !ok:
			res.Pending++
		case out.Committed:
			res.Committed++
			ms := float64(r.latencies[tag]) / float64(time.Millisecond)
			latSum += ms
			lats = append(lats, ms)
		case out.Denied:
			res.Denied++
		default:
			res.Aborted++
		}
		if r.roTag[tag] {
			roSubmitted++
			if ok && out.Committed {
				roCommitted++
			}
		}
	}
	if lr := reg.Get(metrics.CLogicalRead); lr > 0 {
		res.PhysReadsPerLogicalRead = float64(reg.Get(metrics.CPhysRead)) / float64(lr)
	}
	if lw := reg.Get(metrics.CLogicalWrite); lw > 0 {
		res.PhysWritesPerLogicalWrite = float64(reg.Get(metrics.CPhysWrite)) / float64(lw)
	}
	if res.Committed > 0 {
		res.MsgsPerCommit = float64(reg.Get(metrics.CMsgSent)) / float64(res.Committed)
		overhead := reg.Get("net.msg.sent.probe") + reg.Get("net.msg.sent.probeack") +
			reg.Get("net.msg.sent.newvp") + reg.Get("net.msg.sent.acceptvp") +
			reg.Get("net.msg.sent.commitvp")
		res.TxnMsgsPerCommit = float64(reg.Get(metrics.CMsgSent)-overhead) / float64(res.Committed)
		res.MeanLatencyMs = latSum / float64(res.Committed)
		res.P95LatencyMs = percentile(lats, 0.95)
	}
	if res.Submitted > 0 {
		res.Availability = float64(res.Committed) / float64(res.Submitted)
	}
	if roSubmitted > 0 {
		res.ReadOnlyAvailability = float64(roCommitted) / float64(roSubmitted)
	}
	res.StaleReads = countStaleReads(r.Hist)
	res.OneCopySR = onecopy.CheckGraph(r.Hist).OK
	return res
}

func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// countStaleReads walks the history in completion order and counts reads
// that returned a version older than the newest version of the object
// committed earlier in that order — the §4 stale-read phenomenon.
func countStaleReads(h *onecopy.History) int {
	latest := map[model.ObjectID]model.Version{}
	stale := 0
	for _, rec := range h.All() {
		if !rec.Committed {
			continue
		}
		for obj, ver := range rec.Reads {
			if cur, ok := latest[obj]; ok && ver.Less(cur) {
				stale++
			}
		}
		for obj, ver := range rec.Writes {
			if cur, ok := latest[obj]; !ok || cur.Less(ver) {
				latest[obj] = ver
			}
		}
	}
	return stale
}
