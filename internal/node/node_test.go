package node

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// rowaStrategy is a minimal strategy for exercising the machinery:
// read the nearest copy, write all copies, no epochs, no denial logic
// beyond "no copies". It doubles as the scaffolding for the real ROWA
// baseline.
type rowaStrategy struct {
	cat *model.Catalog
}

func (s *rowaStrategy) Name() string { return "test-rowa" }

func (s *rowaStrategy) Begin(rt net.Runtime, _ model.ShardID) (Epoch, error) { return Epoch{}, nil }

func (s *rowaStrategy) StillValid(rt net.Runtime, _ model.ShardID, e Epoch) bool { return true }

func (s *rowaStrategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (Plan, error) {
	copies := s.cat.Copies(obj)
	if copies == 0 {
		return Plan{}, errors.New("unknown object")
	}
	best := model.NoProc
	var bestD time.Duration
	for _, p := range copies.Sorted() {
		d := rt.Distance(p)
		if best == model.NoProc || d < bestD {
			best, bestD = p, d
		}
	}
	return AllOf(s.cat, obj, []model.ProcID{best}), nil
}

func (s *rowaStrategy) WritePlan(rt net.Runtime, obj model.ObjectID) (Plan, error) {
	copies := s.cat.Copies(obj)
	if copies == 0 {
		return Plan{}, errors.New("unknown object")
	}
	plan := AllOf(s.cat, obj, copies.Sorted())
	plan.LockAtPrepare = true
	return plan, nil
}

func (s *rowaStrategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

func (s *rowaStrategy) AcceptAccess(rt net.Runtime, e Epoch) bool { return true }

func (s *rowaStrategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
}

type fixture struct {
	topo    *net.Topology
	cluster *net.SimCluster
	hist    *onecopy.History
	bases   map[model.ProcID]*Base
	results map[uint64]wire.ClientResult
	nextTag uint64
}

func newFixture(t *testing.T, n int, objects ...model.ObjectID) *fixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cat := model.FullyReplicated(n, objects...)
	f := &fixture{
		topo:    topo,
		cluster: net.NewSimCluster(topo, 42),
		hist:    onecopy.NewHistory(),
		bases:   make(map[model.ProcID]*Base),
		results: make(map[uint64]wire.ClientResult),
	}
	cfg := Config{Delta: 2 * time.Millisecond}
	for _, p := range topo.Procs() {
		base := NewBase(p, cfg, cat, &rowaStrategy{cat: cat}, f.hist, nil)
		f.bases[p] = base
		f.cluster.AddNode(p, NewSimpleNode(base))
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return f
}

func (f *fixture) submit(at time.Duration, p model.ProcID, ops []wire.Op) uint64 {
	f.nextTag++
	tag := f.nextTag
	f.cluster.Submit(at, p, wire.ClientTxn{Tag: tag, Ops: ops})
	return tag
}

func (f *fixture) run(d time.Duration) { f.cluster.Run(d) }

func TestSingleTransactionCommits(t *testing.T) {
	f := newFixture(t, 3, "x")
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	res, ok := f.results[tag]
	if !ok {
		t.Fatal("no result")
	}
	if !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	if len(res.Reads) != 1 || res.Reads[0].Val != 0 {
		t.Fatalf("reads = %v", res.Reads)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
	if f.cluster.Reg.Get(metrics.CTxnCommit) != 1 {
		t.Fatal("commit counter wrong")
	}
	// Write-all over 3 copies: 3 physical writes.
	if got := f.cluster.Reg.Get(metrics.CPhysWrite); got != 3 {
		t.Fatalf("physical writes = %d, want 3", got)
	}
	// Read-one: 1 physical read.
	if got := f.cluster.Reg.Get(metrics.CPhysRead); got != 1 {
		t.Fatalf("physical reads = %d, want 1", got)
	}
}

func TestSequentialIncrementsAccumulate(t *testing.T) {
	f := newFixture(t, 3, "x")
	for i := 0; i < 5; i++ {
		f.submit(time.Duration(i)*100*time.Millisecond, model.ProcID(i%3+1), wire.IncrementOps("x", 1))
	}
	f.run(time.Second)
	tag := f.submit(time.Second, 2, []wire.Op{wire.ReadOp("x")})
	f.run(2 * time.Second)
	res := f.results[tag]
	if !res.Committed || res.Reads[0].Val != 5 {
		t.Fatalf("final read = %+v", res)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	f := newFixture(t, 3, "x")
	// Fire 6 concurrent increments from different coordinators at the
	// same instant; strict 2PL + wait-die must serialize them (some may
	// abort, but committed ones must be 1SR and sum correctly).
	for i := 0; i < 6; i++ {
		f.submit(0, model.ProcID(i%3+1), wire.IncrementOps("x", 1))
	}
	f.run(5 * time.Second)
	commits := 0
	for _, res := range f.results {
		if res.Committed {
			commits++
		}
	}
	tag := f.submit(5*time.Second, 1, []wire.Op{wire.ReadOp("x")})
	f.run(6 * time.Second)
	res := f.results[tag]
	if !res.Committed {
		t.Fatalf("final read aborted: %s", res.Reason)
	}
	if int(res.Reads[0].Val) != commits {
		t.Fatalf("x = %d but %d increments committed", res.Reads[0].Val, commits)
	}
	if commits == 0 {
		t.Fatal("no increment committed at all")
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s\n%s", r.Reason, f.hist)
	}
}

func TestTransferConservesMoney(t *testing.T) {
	f := newFixture(t, 3, "a", "b")
	f.submit(0, 1, []wire.Op{wire.WriteOp("a", 100), wire.WriteOp("b", 100)})
	f.run(time.Second)
	for i := 0; i < 8; i++ {
		f.submit(time.Second+time.Duration(i)*time.Microsecond,
			model.ProcID(i%3+1), wire.TransferOps("a", "b", 10))
	}
	f.run(10 * time.Second)
	tag := f.submit(10*time.Second, 2, []wire.Op{wire.ReadOp("a"), wire.ReadOp("b")})
	f.run(11 * time.Second)
	res := f.results[tag]
	if !res.Committed {
		t.Fatalf("audit aborted: %s", res.Reason)
	}
	var total model.Value
	for _, r := range res.Reads {
		total += r.Val
	}
	if total != 200 {
		t.Fatalf("money not conserved: %v", res.Reads)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestInvalidSpecDenied(t *testing.T) {
	f := newFixture(t, 2, "x")
	bad := []wire.Op{{Kind: wire.OpWrite, Obj: "x", Src: "y", UseSrc: true}}
	tag := f.submit(0, 1, bad)
	empty := f.submit(0, 1, nil)
	f.run(time.Second)
	if res := f.results[tag]; !res.Denied {
		t.Fatalf("invalid spec not denied: %+v", res)
	}
	if res := f.results[empty]; !res.Denied {
		t.Fatalf("empty txn not denied: %+v", res)
	}
	if f.cluster.Reg.Get(metrics.CTxnDenied) != 2 {
		t.Fatal("denied counter wrong")
	}
}

func TestUnknownObjectAborts(t *testing.T) {
	f := newFixture(t, 2, "x")
	tag := f.submit(0, 1, []wire.Op{wire.ReadOp("nope")})
	f.run(time.Second)
	res := f.results[tag]
	if res.Committed || res.Denied {
		t.Fatalf("expected abort, got %+v", res)
	}
}

func TestWriteAllAbortsWhenCopyUnreachable(t *testing.T) {
	f := newFixture(t, 3, "x")
	f.topo.Crash(3)
	tag := f.submit(0, 1, wire.IncrementOps("x", 1))
	f.run(5 * time.Second)
	res := f.results[tag]
	if res.Committed {
		t.Fatal("ROWA write must abort when a copy is unreachable")
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestReadOnlyReleasesLocks(t *testing.T) {
	f := newFixture(t, 2, "x")
	f.submit(0, 1, []wire.Op{wire.ReadOp("x")})
	f.run(time.Second)
	// After the read-only txn, a writer must be able to lock everything.
	tag := f.submit(time.Second, 2, wire.IncrementOps("x", 1))
	f.run(3 * time.Second)
	if !f.results[tag].Committed {
		t.Fatalf("writer blocked by stale read locks: %s", f.results[tag].Reason)
	}
}

func TestLeaseSweepReclaimsOrphanedLocks(t *testing.T) {
	f := newFixture(t, 3, "x")
	// Partition the coordinator away right after it acquires remote
	// locks: its Release messages will be lost. (A blind write: with no
	// version in hand it runs the lock round an increment no longer does.)
	f.cluster.At(1500*time.Microsecond, "cut", func() {
		f.topo.Partition([]model.ProcID{1}, []model.ProcID{2, 3})
	})
	tagA := f.submit(0, 1, []wire.Op{wire.WriteOp("x", 1)})
	f.run(2 * time.Second) // let timeouts + lease sweep run
	if f.results[tagA].Committed {
		t.Fatal("partitioned txn should have aborted")
	}
	// Heal and run a fresh writer from the other side. It must not be
	// blocked forever by node 1's orphaned locks on 2 and 3.
	f.cluster.At(2*time.Second, "heal", func() { f.topo.FullMesh() })
	tagB := f.submit(2100*time.Millisecond, 2, wire.IncrementOps("x", 1))
	f.run(10 * time.Second)
	if !f.results[tagB].Committed {
		t.Fatalf("orphaned locks never swept: %s", f.results[tagB].Reason)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestDecideRetransmitsAcrossHeal(t *testing.T) {
	f := newFixture(t, 3, "x")
	// Let the txn prepare, then cut node 3 off just before the decide
	// can reach it; the commit decision must eventually arrive after the
	// heal via retransmission.
	tag := f.submit(0, 1, wire.IncrementOps("x", 1))
	var cutAt = 4 * time.Millisecond // after prepare delivery, before decide
	f.cluster.At(cutAt, "cut", func() {
		f.topo.SetLink(1, 3, false)
	})
	f.cluster.At(500*time.Millisecond, "heal", func() { f.topo.FullMesh() })
	f.run(5 * time.Second)
	res := f.results[tag]
	// Whether the txn committed or aborted depends on timing; what must
	// hold: all three stores eventually agree on x's value.
	vals := map[model.Value]bool{}
	for _, p := range f.topo.Procs() {
		n := f.cluster.Node(p).(SimpleNode)
		if _, staged := n.Store.StagedBy("x"); staged {
			t.Fatalf("node %v still has a staged write after heal+retry", p)
		}
		vals[n.Store.Get("x").Val] = true
	}
	if len(vals) != 1 {
		t.Fatalf("copies diverged after heal: %v (committed=%v)", vals, res.Committed)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestWaitDieUnderContention(t *testing.T) {
	f := newFixture(t, 3, "x", "y")
	// Interleave writers of (x,y) and (y,x): wait-die must prevent
	// deadlock and everything must finish.
	for i := 0; i < 10; i++ {
		ops := []wire.Op{wire.WriteOp("x", int64(i)), wire.WriteOp("y", int64(i))}
		if i%2 == 1 {
			ops = []wire.Op{wire.WriteOp("y", int64(i)), wire.WriteOp("x", int64(i))}
		}
		f.submit(time.Duration(i)*50*time.Microsecond, model.ProcID(i%3+1), ops)
	}
	f.run(20 * time.Second)
	if len(f.results) != 10 {
		t.Fatalf("only %d of 10 transactions finished", len(f.results))
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
	// Both objects must have the same final writer (atomicity).
	var xv, yv model.Value
	for _, p := range f.topo.Procs() {
		n := f.cluster.Node(p).(SimpleNode)
		xv, yv = n.Store.Get("x").Val, n.Store.Get("y").Val
		if xv != yv {
			t.Fatalf("atomicity violated at %v: x=%d y=%d", p, xv, yv)
		}
	}
}

func TestValidateOps(t *testing.T) {
	cases := []struct {
		ops []wire.Op
		ok  bool
	}{
		{nil, false},
		{[]wire.Op{wire.ReadOp("x")}, true},
		{wire.IncrementOps("x", 1), true},
		{[]wire.Op{{Kind: wire.OpWrite, Obj: "x", Src: "x", UseSrc: true}}, false},
		{[]wire.Op{{Kind: wire.OpWrite, Obj: ""}}, false},
		{[]wire.Op{{Kind: 99, Obj: "x"}}, false},
		{wire.TransferOps("a", "b", 1), true},
	}
	for i, c := range cases {
		err := validateOps(c.ops)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Delta <= 0 || c.LockTimeout <= 0 || c.voteWait() <= 0 || c.DecideRetry <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
	c2 := Config{Delta: time.Second}.WithDefaults()
	if c2.LockTimeout != 10*time.Second || c2.voteWait() != 4*time.Second {
		t.Fatalf("delta-derived defaults wrong: %+v", c2)
	}
}

func TestManyObjectsManyTxns(t *testing.T) {
	objs := make([]model.ObjectID, 8)
	for i := range objs {
		objs[i] = model.ObjectID(fmt.Sprintf("o%d", i))
	}
	f := newFixture(t, 4, objs...)
	for i := 0; i < 40; i++ {
		o := objs[i%len(objs)]
		f.submit(time.Duration(i)*20*time.Millisecond, model.ProcID(i%4+1), wire.IncrementOps(o, 1))
	}
	f.run(20 * time.Second)
	commits := 0
	for _, res := range f.results {
		if res.Committed {
			commits++
		}
	}
	if commits < 30 {
		t.Fatalf("too many aborts in a healthy cluster: %d/40 committed", commits)
	}
	if r := onecopy.CheckGraph(f.hist); !r.OK {
		t.Fatalf("not 1SR (graph): %s", r.Reason)
	}
}
