package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// ---------------------------------------------------------------------------
// Test fixture
// ---------------------------------------------------------------------------

const (
	tDelta = 2 * time.Millisecond  // δ
	tPi    = 40 * time.Millisecond // π
)

// tDeltaBound is the liveness bound Δ = π + 8δ of §5.
const tDeltaBound = tPi + 8*tDelta

type fixture struct {
	t       *testing.T
	topo    *net.Topology
	cluster *net.SimCluster
	hist    *onecopy.History
	nodes   map[model.ProcID]*Node
	results map[uint64]wire.ClientResult
	nextTag uint64
	// joins/departs, in delivery order, for S3 checking
	events []any
	// onSend, when set, sees every message a node sends as it leaves
	// (see sendSpy), so a test can act at that instant.
	onSend func(from, to model.ProcID, m wire.Message)
}

// sendSpy runs a node with a runtime that shows each of its sends to the
// fixture's onSend first.
type sendSpy struct {
	*Node
	f *fixture
}

func (s sendSpy) Init(rt net.Runtime) { s.Node.Init(spyRuntime{rt, s.f}) }

func (s sendSpy) OnMessage(rt net.Runtime, from model.ProcID, m wire.Message) {
	s.Node.OnMessage(spyRuntime{rt, s.f}, from, m)
}

func (s sendSpy) OnTimer(rt net.Runtime, key any) { s.Node.OnTimer(spyRuntime{rt, s.f}, key) }

type spyRuntime struct {
	net.Runtime
	f *fixture
}

func (r spyRuntime) Send(to model.ProcID, m wire.Message) {
	r.seen(to, m)
	r.Runtime.Send(to, m)
}

func (r spyRuntime) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	r.seen(to, m)
	r.Runtime.SendCtx(to, m, ctx)
}

func (r spyRuntime) seen(to model.ProcID, m wire.Message) {
	if r.f.onSend != nil {
		r.f.onSend(r.ID(), to, m)
	}
}

func fixtureConfig() Config {
	return Config{Config: node.Config{Delta: tDelta, LogCap: 64}, Pi: tPi}
}

func newFixtureCfg(t *testing.T, cat *model.Catalog, n int, cfg Config, seed int64) *fixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		t:       t,
		topo:    topo,
		cluster: net.NewSimCluster(topo, seed),
		hist:    onecopy.NewHistory(),
		nodes:   make(map[model.ProcID]*Node),
		results: make(map[uint64]wire.ClientResult),
	}
	for _, p := range topo.Procs() {
		nd := New(p, cfg, cat, f.hist, nil, nil)
		nd.Observer = func(ev any) { f.events = append(f.events, ev) }
		f.nodes[p] = nd
		f.cluster.AddNode(p, sendSpy{nd, f})
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return f
}

func newFixture(t *testing.T, cat *model.Catalog, n int, seed int64) *fixture {
	return newFixtureCfg(t, cat, n, fixtureConfig(), seed)
}

func (f *fixture) submit(at time.Duration, p model.ProcID, ops []wire.Op) uint64 {
	f.nextTag++
	tag := f.nextTag
	f.cluster.Submit(at, p, wire.ClientTxn{Tag: tag, Ops: ops})
	return tag
}

// submitUntilCommitted retries a transaction at p until it commits, with
// the given retry spacing, up to maxTries. It returns the tag of the
// last attempt (check f.results for the outcome).
func (f *fixture) submitUntilCommitted(start time.Duration, every time.Duration, maxTries int, p model.ProcID, ops []wire.Op) *uint64 {
	tag := new(uint64)
	var attempt func(at time.Duration, n int)
	attempt = func(at time.Duration, n int) {
		f.nextTag++
		mine := f.nextTag
		f.cluster.Submit(at, p, wire.ClientTxn{Tag: mine, Ops: ops})
		f.cluster.At(at+every, fmt.Sprintf("retry-check-%d", mine), func() {
			res, ok := f.results[mine]
			if ok && (res.Committed || res.Denied && n >= maxTries) {
				*tag = mine
				return
			}
			if n < maxTries {
				attempt(f.cluster.Engine.Now(), n+1)
			} else {
				*tag = mine
			}
		})
	}
	f.cluster.Engine.At(start, "first-attempt", func() { attempt(start, 1) })
	return tag
}

func (f *fixture) run(until time.Duration) { f.cluster.Run(until) }

// requireCommonView asserts that every processor in set is assigned, all
// share one partition id, and the common view equals the set (S1 plus
// the liveness expectation L1).
func (f *fixture) requireCommonView(set ...model.ProcID) {
	f.t.Helper()
	want := model.NewProcSet(set...)
	var id model.VPID
	for i, p := range set {
		nd := f.nodes[p]
		if !nd.Assigned() {
			f.t.Fatalf("%v not assigned (t=%v)", p, f.cluster.Engine.Now())
		}
		if i == 0 {
			id = nd.CurID()
		} else if nd.CurID() != id {
			f.t.Fatalf("%v in %v, %v in %v: same clique, different partitions",
				set[0], id, p, nd.CurID())
		}
		if nd.View() != want {
			f.t.Fatalf("%v view = %v, want %v", p, nd.View(), want)
		}
	}
}

// checkS1S2 verifies view consistency and reflexivity over all nodes at
// the moment of the call.
func (f *fixture) checkS1S2() {
	f.t.Helper()
	for p, nd := range f.nodes {
		if !nd.Assigned() {
			continue
		}
		if !nd.View().Has(p) {
			f.t.Fatalf("S2 violated: %v ∉ view(%v)", p, p)
		}
		for q, other := range f.nodes {
			if q <= p || !other.Assigned() {
				continue
			}
			if nd.CurID() == other.CurID() && nd.View() != other.View() {
				f.t.Fatalf("S1 violated: vp(%v)=vp(%v)=%v but views %v ≠ %v",
					p, q, nd.CurID(), nd.View(), other.View())
			}
		}
	}
}

// ---------------------------------------------------------------------------
// View formation and liveness
// ---------------------------------------------------------------------------

func TestInitialConvergence(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 1)
	f.run(tDeltaBound + tPi)
	f.requireCommonView(1, 2, 3, 4, 5)
	f.checkS1S2()
}

func TestPartitionSplitsViews(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 2)
	f.run(tDeltaBound + tPi)
	f.cluster.At(200*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2, 3}, []model.ProcID{4, 5})
	})
	f.run(200*time.Millisecond + 2*tDeltaBound)
	f.requireCommonView(1, 2, 3)
	f.requireCommonView(4, 5)
	f.checkS1S2()
	if f.nodes[1].CurID() == f.nodes[4].CurID() {
		t.Fatal("two sides of a partition share a vp-id")
	}
}

func TestHealMergesViews(t *testing.T) {
	cat := model.FullyReplicated(4, "x")
	f := newFixture(t, cat, 4, 3)
	f.cluster.At(100*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3, 4})
	})
	f.cluster.At(400*time.Millisecond, "heal", func() { f.topo.FullMesh() })
	f.run(400*time.Millisecond + 2*tDeltaBound)
	f.requireCommonView(1, 2, 3, 4)
	f.checkS1S2()
}

// TestLivenessBound measures the merge convergence time after a heal and
// compares it against Δ = π + 8δ from §5.
func TestLivenessBound(t *testing.T) {
	cat := model.FullyReplicated(4, "x")
	f := newFixture(t, cat, 4, 4)
	f.cluster.At(100*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3, 4})
	})
	const healAt = 500 * time.Millisecond
	f.cluster.At(healAt, "heal", func() { f.topo.FullMesh() })
	// Sample views every δ/2 after the heal to find convergence time.
	var converged time.Duration
	want := model.NewProcSet(1, 2, 3, 4)
	for at := healAt; at <= healAt+2*tDeltaBound; at += tDelta / 2 {
		at := at
		f.cluster.At(at, "sample", func() {
			if converged != 0 {
				return
			}
			var id model.VPID
			for i, p := range f.topo.Procs() {
				nd := f.nodes[p]
				if !nd.Assigned() || nd.View() != want {
					return
				}
				if i == 0 {
					id = nd.CurID()
				} else if nd.CurID() != id {
					return
				}
			}
			converged = at - healAt
		})
	}
	f.run(healAt + 3*tDeltaBound)
	if converged == 0 {
		t.Fatal("views never converged after heal")
	}
	if converged > tDeltaBound {
		t.Fatalf("convergence took %v, liveness bound Δ = π+8δ = %v", converged, tDeltaBound)
	}
	t.Logf("converged in %v (bound %v)", converged, tDeltaBound)
}

func TestCrashedNodeLeavesView(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 5)
	f.run(tDeltaBound + tPi)
	f.requireCommonView(1, 2, 3)
	f.cluster.At(200*time.Millisecond, "crash", func() { f.topo.Crash(3) })
	f.run(200*time.Millisecond + 2*tDeltaBound)
	f.requireCommonView(1, 2)
	// The crashed node eventually sits alone in its own partition.
	if f.nodes[3].Assigned() && f.nodes[3].View().Len() != 1 {
		t.Fatalf("crashed node's view = %v", f.nodes[3].View())
	}
	f.checkS1S2()
}

// checkS3 verifies property S3 on recorded join/depart events and
// returns the number of joins: taking << to be the order ≺ on vp-ids,
// every processor that appears in the view of a later partition w and
// was a member of an earlier partition v departed v before anyone
// joined w.
func checkS3(t *testing.T, events []any) int {
	t.Helper()
	type joinRec struct {
		idx  int
		proc model.ProcID
		vp   model.VPID
		view model.ProcSet
	}
	type departRec struct {
		idx  int
		proc model.ProcID
		vp   model.VPID
	}
	var joins []joinRec
	departs := map[model.ProcID][]departRec{}
	members := map[model.VPID]model.ProcSet{}
	for i, ev := range events {
		switch e := ev.(type) {
		case JoinEvent:
			joins = append(joins, joinRec{i, e.Proc, e.VP, e.View})
			members[e.VP] |= model.NewProcSet(e.Proc)
		case DepartEvent:
			departs[e.Proc] = append(departs[e.Proc], departRec{i, e.Proc, e.VP})
		}
	}
	// For each pair v ≺ w and p ∈ members(v) ∩ view(w): depart(p, v)
	// happens before join(q, w) for every q.
	for _, jw := range joins {
		for v, mem := range members {
			if !v.Less(jw.vp) {
				continue
			}
			for _, p := range mem.Sorted() {
				if !jw.view.Has(p) {
					continue
				}
				// find depart(p, v)
				found := false
				for _, d := range departs[p] {
					if d.vp == v && d.idx < jw.idx {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("S3 violated: %v joined %v (event %d) but %v never departed %v before that",
						jw.proc, jw.vp, jw.idx, p, v)
				}
			}
		}
	}
	return len(joins)
}

// TestS3CreationOrder holds a split, a re-split and a heal against S3.
func TestS3CreationOrder(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 6)
	f.cluster.At(100*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2, 3}, []model.ProcID{4, 5})
	})
	f.cluster.At(300*time.Millisecond, "resplit", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3, 4, 5})
	})
	f.cluster.At(500*time.Millisecond, "heal", func() { f.topo.FullMesh() })
	f.run(time.Second)

	joins := checkS3(t, f.events)
	if joins < 5 {
		t.Fatalf("scenario too quiet: only %d joins", joins)
	}
}

func TestProbeTrafficIsBounded(t *testing.T) {
	// In a stable full mesh, the protocol must settle: no new partitions
	// after convergence, only probe traffic.
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 7)
	f.run(tDeltaBound + tPi)
	created := f.cluster.Reg.Get("vp.created")
	f.run(tDeltaBound + tPi + 10*tPi)
	if got := f.cluster.Reg.Get("vp.created"); got != created {
		t.Fatalf("partitions kept being created in a stable network: %d -> %d", created, got)
	}
	f.requireCommonView(1, 2, 3)
}
