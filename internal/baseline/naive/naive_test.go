package naive

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

type fixture struct {
	topo    *net.Topology
	cluster *net.SimCluster
	hist    *onecopy.History
	nodes   map[model.ProcID]*Node
	results map[uint64]wire.ClientResult
	nextTag uint64
}

func newFixture(t *testing.T, cat *model.Catalog, n int) *fixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		topo:    topo,
		cluster: net.NewSimCluster(topo, 1),
		hist:    onecopy.NewHistory(),
		nodes:   make(map[model.ProcID]*Node),
		results: make(map[uint64]wire.ClientResult),
	}
	all := model.NewProcSet(topo.Procs()...)
	for _, p := range topo.Procs() {
		nd := New(p, node.Config{Delta: 2 * time.Millisecond}, cat, f.hist, all)
		f.nodes[p] = nd
		f.cluster.AddNode(p, nd)
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return f
}

func (f *fixture) submit(at time.Duration, p model.ProcID, ops []wire.Op) uint64 {
	f.nextTag++
	f.cluster.Submit(at, p, wire.ClientTxn{Tag: f.nextTag, Ops: ops})
	return f.nextTag
}

func TestHealthyOperationIsCorrect(t *testing.T) {
	// With accurate views and a clean network the naive rules are the
	// correct "clean environment" protocol of §4.
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3)
	for i := 0; i < 5; i++ {
		f.submit(time.Duration(i)*50*time.Millisecond, model.ProcID(i%3+1), wire.IncrementOps("x", 1))
	}
	f.cluster.Run(time.Second)
	tag := f.submit(time.Second, 2, []wire.Op{wire.ReadOp("x")})
	f.cluster.Run(2 * time.Second)
	res := f.results[tag]
	if !res.Committed || res.Reads[0].Val != 5 {
		t.Fatalf("x = %+v, want 5", res)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("healthy naive run should be 1SR: %s", r.Reason)
	}
	// Read-one: exactly one physical read per logical read.
	if got := f.cluster.Reg.Get(metrics.CPhysRead); got != 6 {
		t.Fatalf("physical reads = %d, want 6 (5 increments + 1 read)", got)
	}
}

func TestViewRestrictsAccess(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3)
	// A view with only one of three copies: not a majority, denied.
	f.nodes[1].SetView(model.NewProcSet(1))
	tag := f.submit(0, 1, []wire.Op{wire.ReadOp("x")})
	f.cluster.Run(time.Second)
	res := f.results[tag]
	if res.Committed {
		t.Fatal("read committed without a majority in view")
	}
	if got := f.nodes[1].View(); got != model.NewProcSet(1) {
		t.Fatalf("View = %v", got)
	}
}

func TestWritesGoToViewOnly(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3)
	// View {1,2}: a majority, so the write commits — but only copies 1
	// and 2 are written; copy 3 is silently left stale. That is the
	// naive protocol's defect in a nutshell.
	f.nodes[1].SetView(model.NewProcSet(1, 2))
	tag := f.submit(0, 1, []wire.Op{wire.WriteOp("x", 9)})
	f.cluster.Run(time.Second)
	if !f.results[tag].Committed {
		t.Fatalf("write aborted: %s", f.results[tag].Reason)
	}
	if f.nodes[1].Store.Get("x").Val != 9 || f.nodes[2].Store.Get("x").Val != 9 {
		t.Fatal("in-view copies not written")
	}
	if f.nodes[3].Store.Get("x").Val != 0 {
		t.Fatal("out-of-view copy written")
	}
}

func TestNoEpochGuard(t *testing.T) {
	// The naive server accepts accesses from any coordinator regardless
	// of views — there is no rule R4. Node 1's view excludes node 3,
	// but node 3 can still read/write node 1's copies.
	cat := model.NewCatalog(model.Placement{Object: "x", Holders: model.NewProcSet(1, 3)})
	f := newFixture(t, cat, 3)
	f.nodes[1].SetView(model.NewProcSet(1, 2))
	f.nodes[3].SetView(model.NewProcSet(1, 2, 3))
	tag := f.submit(0, 3, []wire.Op{wire.WriteOp("x", 5)})
	f.cluster.Run(time.Second)
	if !f.results[tag].Committed {
		t.Fatalf("write aborted: %s", f.results[tag].Reason)
	}
	if f.nodes[1].Store.Get("x").Val != 5 {
		t.Fatal("naive server should have accepted the cross-view write")
	}
}

func TestWeightedViews(t *testing.T) {
	cat := model.NewCatalog(model.Placement{
		Object:  "x",
		Holders: model.NewProcSet(1, 2),
		Weights: map[model.ProcID]int{1: 2},
	})
	f := newFixture(t, cat, 2)
	f.nodes[1].SetView(model.NewProcSet(1)) // weight 2 of 3: majority
	f.nodes[2].SetView(model.NewProcSet(2)) // weight 1 of 3: no majority
	t1 := f.submit(0, 1, []wire.Op{wire.ReadOp("x")})
	t2 := f.submit(0, 2, []wire.Op{wire.ReadOp("x")})
	f.cluster.Run(time.Second)
	if !f.results[t1].Committed {
		t.Fatal("weighted majority read refused")
	}
	if f.results[t2].Committed {
		t.Fatal("weighted minority read committed")
	}
}
