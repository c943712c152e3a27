package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/baseline/naive"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file reproduces the paper's Examples 1 and 2 executably: the
// naive §4 rules (assumptions A2/A3 violated) produce non-1SR
// executions; the virtual partition protocol, in the same scenarios,
// does not.

// ---------------------------------------------------------------------------
// Example 1 (Figure 1): non-transitive communication graph
// ---------------------------------------------------------------------------

// naiveFixture builds a cluster of naive nodes with scripted views.
type naiveFixture struct {
	topo    *net.Topology
	cluster *net.SimCluster
	hist    *onecopy.History
	nodes   map[model.ProcID]*naive.Node
	results map[uint64]wire.ClientResult
	nextTag uint64
}

func newNaiveFixture(t *testing.T, cat *model.Catalog, n int, seed int64) *naiveFixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &naiveFixture{
		topo:    topo,
		cluster: net.NewSimCluster(topo, seed),
		hist:    onecopy.NewHistory(),
		nodes:   make(map[model.ProcID]*naive.Node),
		results: make(map[uint64]wire.ClientResult),
	}
	cfg := node.Config{Delta: tDelta}
	all := model.NewProcSet(topo.Procs()...)
	for _, p := range topo.Procs() {
		nd := naive.New(p, cfg, cat, f.hist, all)
		f.nodes[p] = nd
		f.cluster.AddNode(p, nd)
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return f
}

func (f *naiveFixture) submit(at time.Duration, p model.ProcID, ops []wire.Op) uint64 {
	f.nextTag++
	tag := f.nextTag
	f.cluster.Submit(at, p, wire.ClientTxn{Tag: tag, Ops: ops})
	return tag
}

// TestExample1NaiveViolates1SR: processors A and B cannot talk to each
// other but both talk to C. Their views ({A,C} and {B,C}) each contain a
// majority of x's three copies, so both run an increment — and both read
// the initial value. The paper: "after two successive increments, all
// copies of x contain 1. Clearly, the execution ... is not one-copy
// serializable."
func TestExample1NaiveViolates1SR(t *testing.T) {
	const A, B, C = 1, 2, 3
	cat := model.FullyReplicated(3, "x")
	f := newNaiveFixture(t, cat, 3, 21)
	f.topo.SetLink(A, B, false) // Figure 1
	f.nodes[A].SetView(model.NewProcSet(A, C))
	f.nodes[B].SetView(model.NewProcSet(B, C))
	f.nodes[C].SetView(model.NewProcSet(A, B, C))

	// Sequential increments: first at A, then at B.
	tagA := f.submit(10*time.Millisecond, A, wire.IncrementOps("x", 1))
	tagB := f.submit(500*time.Millisecond, B, wire.IncrementOps("x", 1))
	f.cluster.Run(2 * time.Second)

	if !f.results[tagA].Committed || !f.results[tagB].Committed {
		t.Fatalf("both increments should commit under the naive rules: %+v / %+v",
			f.results[tagA], f.results[tagB])
	}
	// All copies contain 1 although two increments committed.
	for _, p := range []model.ProcID{A, B, C} {
		if v := f.nodes[p].Store.Get("x").Val; v != 1 {
			t.Fatalf("copy at %v = %d, expected the lost update (1)", model.ProcID(p), v)
		}
	}
	if r := onecopy.Check(f.hist); r.OK {
		t.Fatalf("checker accepted the Example 1 execution as 1SR (order %v)", r.Order)
	}
}

// TestExample1VPProtocolSafe runs the same scenario under the virtual
// partition protocol: the non-transitive graph prevents A and B from
// ever being assigned to one consistent partition simultaneously with
// conflicting views, rule R4 fences cross-partition access, and rule R5
// refreshes copies — both increments (retried until committed) are
// serialized and the final value is 2.
func TestExample1VPProtocolSafe(t *testing.T) {
	const A, B, C = 1, 2, 3
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 22)
	f.topo.SetLink(A, B, false) // Figure 1, from the very start

	tagA := f.submitUntilCommitted(50*time.Millisecond, 100*time.Millisecond, 100, A, wire.IncrementOps("x", 1))
	tagB := f.submitUntilCommitted(60*time.Millisecond, 100*time.Millisecond, 100, B, wire.IncrementOps("x", 1))
	f.run(30 * time.Second)

	if !f.results[*tagA].Committed {
		t.Fatalf("A's increment never committed: %+v", f.results[*tagA])
	}
	if !f.results[*tagB].Committed {
		t.Fatalf("B's increment never committed: %+v", f.results[*tagB])
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("VP protocol produced a non-1SR execution: %s\n%s", r.Reason, f.hist)
	}
	// Heal the graph and read the final value: both increments applied.
	f.cluster.At(f.cluster.Engine.Now(), "heal", func() { f.topo.FullMesh() })
	f.run(f.cluster.Engine.Now() + 2*tDeltaBound)
	now := f.cluster.Engine.Now()
	rTag := f.submit(now, C, []wire.Op{wire.ReadOp("x")})
	f.run(now + time.Second)
	res := f.results[rTag]
	if !res.Committed {
		t.Fatalf("final read aborted: %s", res.Reason)
	}
	if res.Reads[0].Val != 2 {
		t.Fatalf("x = %d after two committed increments, want 2", res.Reads[0].Val)
	}
}

// ---------------------------------------------------------------------------
// Example 2 (Figure 2, Tables 1 and 2): asynchronous view updates
// ---------------------------------------------------------------------------

// example2Catalog builds Table 2's weighted placements:
//
//	A: a², b    B: b², c    C: c², d    D: d², a
func example2Catalog() *model.Catalog {
	const A, B, C, D = 1, 2, 3, 4
	return model.NewCatalog(
		model.Placement{Object: "a", Holders: model.NewProcSet(A, D), Weights: map[model.ProcID]int{A: 2}},
		model.Placement{Object: "b", Holders: model.NewProcSet(B, A), Weights: map[model.ProcID]int{B: 2}},
		model.Placement{Object: "c", Holders: model.NewProcSet(C, B), Weights: map[model.ProcID]int{C: 2}},
		model.Placement{Object: "d", Holders: model.NewProcSet(D, C), Weights: map[model.ProcID]int{D: 2}},
	)
}

func example2Txns() map[model.ProcID][]wire.Op {
	return map[model.ProcID][]wire.Op{
		1: {wire.ReadOp("b"), {Kind: wire.OpWrite, Obj: "a", Src: "b", UseSrc: true, Const: 1}},
		2: {wire.ReadOp("c"), {Kind: wire.OpWrite, Obj: "b", Src: "c", UseSrc: true, Const: 1}},
		3: {wire.ReadOp("d"), {Kind: wire.OpWrite, Obj: "c", Src: "d", UseSrc: true, Const: 1}},
		4: {wire.ReadOp("a"), {Kind: wire.OpWrite, Obj: "d", Src: "a", UseSrc: true, Const: 1}},
	}
}

// TestExample2NaiveViolates1SR reproduces Table 1's inconsistent views:
// B and D have adopted the new partition {B,C}/{A,D} while A and C still
// hold the old views {A,B}/{C,D}. Each processor locally runs its
// transaction touching only local copies; the result is serializable per
// object but not one-copy serializable.
func TestExample2NaiveViolates1SR(t *testing.T) {
	const A, B, C, D = 1, 2, 3, 4
	f := newNaiveFixture(t, example2Catalog(), 4, 23)
	// Physical topology: the new partition {B,C} / {A,D}.
	f.topo.Partition([]model.ProcID{B, C}, []model.ProcID{A, D})
	// Views per Table 1 (old at A and C, new at B and D).
	f.nodes[A].SetView(model.NewProcSet(A, B))
	f.nodes[B].SetView(model.NewProcSet(B, C))
	f.nodes[C].SetView(model.NewProcSet(C, D))
	f.nodes[D].SetView(model.NewProcSet(A, D))

	tags := map[model.ProcID]uint64{}
	for p, ops := range example2Txns() {
		tags[p] = f.submit(time.Duration(p)*10*time.Millisecond, p, ops)
	}
	f.cluster.Run(3 * time.Second)
	for p, tag := range tags {
		if !f.results[tag].Committed {
			t.Fatalf("T_%v should commit under the naive rules: %+v", p, f.results[tag])
		}
	}
	if r := onecopy.Check(f.hist); r.OK {
		t.Fatalf("checker accepted the Example 2 execution as 1SR (order %v)", r.Order)
	}
}

// TestExample2VPProtocolSafe runs the same re-partition under the
// virtual partition protocol. S3 forbids the half-updated view state:
// whatever interleaving occurs, the committed transactions form a 1SR
// execution.
func TestExample2VPProtocolSafe(t *testing.T) {
	const A, B, C, D = 1, 2, 3, 4
	f := newFixture(t, example2Catalog(), 4, 24)
	// Old partition first.
	f.topo.Partition([]model.ProcID{A, B}, []model.ProcID{C, D})
	f.run(tDeltaBound * 2)
	// Re-partition to {B,C} / {A,D} and fire the four transactions
	// immediately, while views are converging.
	at := f.cluster.Engine.Now()
	f.cluster.At(at, "repartition", func() {
		f.topo.Partition([]model.ProcID{B, C}, []model.ProcID{A, D})
	})
	for p, ops := range example2Txns() {
		// One shot right at the transition, one retry loop after.
		f.submit(at+time.Duration(p)*time.Millisecond, p, ops)
		f.submitUntilCommitted(at+50*time.Millisecond, 100*time.Millisecond, 40, p, ops)
	}
	f.run(at + 20*time.Second)
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("VP protocol produced a non-1SR execution in Example 2: %s\n%s", r.Reason, f.hist)
	}
	committed := 0
	for _, rec := range f.hist.Committed() {
		_ = rec
		committed++
	}
	if committed == 0 {
		t.Fatal("nothing committed at all; scenario degenerate")
	}
	f.checkS1S2()
}
