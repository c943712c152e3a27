package missingwrites

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

func newFixture(t *testing.T, cat *model.Catalog, n int, seed int64) *fixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		topo:    topo,
		cluster: net.NewSimCluster(topo, seed),
		hist:    onecopy.NewHistory(),
		nodes:   make(map[model.ProcID]*Node),
		results: make(map[uint64]wire.ClientResult),
	}
	cfg := node.Config{Delta: 2 * time.Millisecond}
	for _, p := range topo.Procs() {
		nd := New(p, cfg, cat, f.hist, 0)
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

func TestReadOneWhenHealthy(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 1)
	tag := f.submit(0, 1, []wire.Op{wire.ReadOp("x")})
	f.cluster.Run(time.Second)
	if !f.results[tag].Committed {
		t.Fatalf("aborted: %s", f.results[tag].Reason)
	}
	if got := f.cluster.Reg.Get(metrics.CPhysRead); got != 1 {
		t.Fatalf("healthy read cost %d physical reads, want 1", got)
	}
}

func TestWriteAllWhenHealthy(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 2)
	tag := f.submit(0, 1, []wire.Op{wire.WriteOp("x", 5)})
	f.cluster.Run(time.Second)
	if !f.results[tag].Committed {
		t.Fatal("write aborted")
	}
	if got := f.cluster.Reg.Get(metrics.CPhysWrite); got != 5 {
		t.Fatalf("healthy write reached %d copies, want all 5", got)
	}
	// The lock round is how the coordinator learns which copies missed the
	// write: this protocol keeps it.
	if got := f.cluster.Reg.Get(metrics.CMsgSent + ".lockreq"); got != 4 {
		t.Fatalf("lock requests sent = %d, want one per remote copy", got)
	}
	for _, p := range f.topo.Procs() {
		if f.nodes[p].Store.HasMissing("x") {
			t.Fatalf("healthy write left missing marks at %v", p)
		}
	}
}

func TestCrashCreatesMarksAndEscalatesReads(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 3)
	f.topo.Crash(5)
	// First write times out against node 5, then succeeds at majority
	// after the strategy suspects it. Retry until committed.
	w1 := f.submit(0, 1, []wire.Op{wire.WriteOp("x", 1)})
	f.cluster.Run(2 * time.Second)
	w2 := f.submit(2*time.Second, 1, []wire.Op{wire.WriteOp("x", 2)})
	f.cluster.Run(4 * time.Second)
	committedWrite := f.results[w1].Committed || f.results[w2].Committed
	if !committedWrite {
		t.Fatalf("no write committed around the crash: %s / %s",
			f.results[w1].Reason, f.results[w2].Reason)
	}
	// The surviving copies must be marked.
	marked := 0
	for _, p := range []model.ProcID{1, 2, 3, 4} {
		if f.nodes[p].Store.HasMissing("x") {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no surviving copy carries missing-write marks")
	}
	// A read now escalates to a majority (3 of 5 weight).
	before := f.cluster.Reg.Get(metrics.CPhysRead)
	rTag := f.submit(4*time.Second, 2, []wire.Op{wire.ReadOp("x")})
	f.cluster.Run(6 * time.Second)
	res := f.results[rTag]
	if !res.Committed {
		t.Fatalf("read aborted: %s", res.Reason)
	}
	if got := f.cluster.Reg.Get(metrics.CPhysRead) - before; got < 3 {
		t.Fatalf("marked read cost %d physical reads, want ≥ majority (3)", got)
	}
	// And it sees the latest committed value.
	want := model.Value(1)
	if f.results[w2].Committed {
		want = 2
	}
	if res.Reads[0].Val != want {
		t.Fatalf("escalated read returned %d, want %d", res.Reads[0].Val, want)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestMarksClearAfterCompleteWrite(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 4)
	f.topo.Crash(3)
	f.submit(0, 1, []wire.Op{wire.WriteOp("x", 1)})
	f.cluster.Run(2 * time.Second) // timeout, suspect, still marked? retry:
	f.submit(2*time.Second, 1, []wire.Op{wire.WriteOp("x", 2)})
	f.cluster.Run(4 * time.Second)
	// Recover node 3 and wait out the suspicion TTL, then write again:
	// the complete write must clear the marks and refresh node 3.
	f.topo.Recover(3)
	f.cluster.Run(8 * time.Second) // suspectTTL = 10×LockTimeout = 200ms « 4s
	w3 := f.submit(8*time.Second, 1, []wire.Op{wire.WriteOp("x", 3)})
	f.cluster.Run(10 * time.Second)
	if !f.results[w3].Committed {
		t.Fatalf("post-recovery write aborted: %s", f.results[w3].Reason)
	}
	for _, p := range f.topo.Procs() {
		if f.nodes[p].Store.HasMissing("x") {
			t.Fatalf("marks not cleared at %v after complete write", p)
		}
		if got := f.nodes[p].Store.Get("x").Val; got != 3 {
			t.Fatalf("copy at %v = %d, want 3", p, got)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

func TestMinorityAloneCannotWrite(t *testing.T) {
	cat := model.FullyReplicated(5, "x")
	f := newFixture(t, cat, 5, 5)
	f.topo.Crash(3)
	f.topo.Crash(4)
	f.topo.Crash(5)
	w := f.submit(0, 1, []wire.Op{wire.WriteOp("x", 1)})
	f.cluster.Run(3 * time.Second)
	if f.results[w].Committed {
		t.Fatal("write committed with only 2 of 5 copies reachable")
	}
	// Second attempt with suspects recorded is denied outright.
	w2 := f.submit(3*time.Second, 1, []wire.Op{wire.WriteOp("x", 1)})
	f.cluster.Run(5 * time.Second)
	if f.results[w2].Committed {
		t.Fatal("second write committed without a majority")
	}
}

func TestSuspectsExpire(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 6)
	f.topo.Crash(3)
	f.submit(0, 1, []wire.Op{wire.WriteOp("x", 1)})
	f.cluster.Run(time.Second)
	if len(f.nodes[1].Suspects()) == 0 {
		t.Fatal("timeout did not record a suspect")
	}
	f.topo.Recover(3)
	// After the TTL (10×LockTimeout = 200ms), a write reaches all again.
	f.cluster.Run(3 * time.Second)
	w := f.submit(3*time.Second, 1, []wire.Op{wire.WriteOp("x", 9)})
	f.cluster.Run(5 * time.Second)
	if !f.results[w].Committed {
		t.Fatalf("write after recovery aborted: %s", f.results[w].Reason)
	}
	if got := f.nodes[3].Store.Get("x").Val; got != 9 {
		t.Fatalf("recovered copy = %d, want 9 (suspect never expired?)", got)
	}
}
