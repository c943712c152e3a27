package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// The write digest of formation: every member reports the newest version
// it holds and the objects it has staged, and a join refreshes only the
// copies some member may hold a newer version of.

func prevOptFixture(t *testing.T, n int, seed int64, objs ...model.ObjectID) *fixture {
	t.Helper()
	cfg := fixtureConfig()
	cfg.UsePrevOpt = true
	f := newFixtureCfg(t, model.FullyReplicated(n, objs...), n, cfg, seed)
	f.record()
	return f
}

// record turns on the cluster's structured event trace.
func (f *fixture) record() {
	f.cluster.Rec = trace.New(trace.DefaultCap)
	f.cluster.Rec.SetEnabled(true)
}

// refreshStarts counts, per processor, the R5 refreshes of obj started
// at or after since.
func (f *fixture) refreshStarts(obj model.ObjectID, since time.Duration) map[model.ProcID]int {
	out := map[model.ProcID]int{}
	for _, e := range f.cluster.Rec.Events() {
		if e.Kind == trace.EvRefreshStart && e.Obj == obj && e.At >= since {
			out[e.Proc]++
		}
	}
	return out
}

func objectNames(n int) []model.ObjectID {
	objs := make([]model.ObjectID, n)
	for i := range objs {
		objs[i] = model.ObjectID(fmt.Sprintf("o%d", i))
	}
	return objs
}

// A fresh boot: every copy is at the zero version and nothing is
// staged, so no join refreshes anything and every accessible copy is
// counted as skipped.
func TestFreshBootRefreshesNothing(t *testing.T) {
	objs := objectNames(40)
	f := prevOptFixture(t, 3, 71, objs...)
	f.run(tSettled)
	f.requireCommonView(1, 2, 3)
	joins := len(joinsAfter(f.events, 0))
	if joins < 3 {
		t.Fatalf("%d joins, want every processor to have joined", joins)
	}
	for _, e := range f.cluster.Rec.Events() {
		if e.Kind == trace.EvRefreshStart {
			t.Fatalf("%v refreshed %s at boot", e.Proc, e.Obj)
		}
	}
	if got, want := f.cluster.Reg.Get(metrics.CRefreshSkips), int64(joins*len(objs)); got != want {
		t.Fatalf("vp.refresh.skipped = %d, want %d (%d joins × %d objects)", got, want, joins, len(objs))
	}
	if got := f.cluster.Reg.Get(metrics.CRefreshReads) + f.cluster.Reg.Get(metrics.CMsgSent+".catchupreq"); got != 0 {
		t.Fatalf("%d recovery reads at boot, want 0", got)
	}
	if got := f.cluster.Reg.Get(metrics.CRefreshing); got != 0 {
		t.Fatalf("vp.refreshing = %d after boot, want 0", got)
	}
}

// A member holding a newer committed copy forces the refresh of every
// copy older than it; copies at that version are current and skipped.
func TestDigestNewerCopyForcesRefresh(t *testing.T) {
	f := prevOptFixture(t, 3, 72, "x", "y")
	f.run(tSettled)
	f.cluster.At(tSettled, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	f.run(tSettled + 2*tDeltaBound)
	f.requireCommonView(1, 2)
	at := tSettled + 2*tDeltaBound
	tag := f.submit(at, 1, wire.IncrementOps("x", 5))
	f.run(at + tDeltaBound)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("increment aborted: %s", res.Reason)
	}
	healAt := at + tDeltaBound
	skips := f.cluster.Reg.Get(metrics.CRefreshSkips)
	f.cluster.At(healAt, "heal", func() { f.topo.FullMesh() })
	f.run(healAt + 2*tDeltaBound)
	f.requireCommonView(1, 2, 3)

	x, y := f.refreshStarts("x", healAt), f.refreshStarts("y", healAt)
	if x[3] == 0 {
		t.Fatal("P3's stale copy of x was not refreshed")
	}
	if x[1] != 0 || x[2] != 0 {
		t.Fatalf("x refreshed at P1/P2 (%v), whose copies are the newest", x)
	}
	// y was never written, but P1 and P2 hold a newer version of something
	// (x): the digest cannot tell, so y is refreshed everywhere.
	if y[1] == 0 || y[2] == 0 || y[3] == 0 {
		t.Fatalf("y refreshes %v, want one at every processor", y)
	}
	if got := f.cluster.Reg.Get(metrics.CRefreshSkips) - skips; got != 2 {
		t.Fatalf("merge skipped %d refreshes, want 2 (x at P1 and P2)", got)
	}
	if got := f.nodes[3].Store.Get("x").Val; got != 5 {
		t.Fatalf("P3's x = %d after the merge, want 5", got)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A member that lists a staged write forces that object's refresh, which
// then waits (copyBusy) for the Decide: a prepared write whose outcome is
// unknown is never read past.
func TestDigestStagedWriteForcesRefresh(t *testing.T) {
	f := prevOptFixture(t, 3, 73, "x", "y")
	f.run(tSettled)
	f.cluster.At(tSettled, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	f.run(tSettled + 2*tDeltaBound)
	f.requireCommonView(1, 2)

	// The coordinator's Decide to P2 is lost: the cut from {2,3} happens
	// as it leaves, so P2 keeps the write prepared across the partition.
	cut := false
	f.onSend = func(from, to model.ProcID, m wire.Message) {
		if d, ok := m.(wire.Decide); ok && d.Commit && from == 1 && to == 2 && !cut {
			cut = true
			f.topo.Partition([]model.ProcID{1}, []model.ProcID{2, 3})
		}
	}
	at := tSettled + 2*tDeltaBound
	tag := f.submit(at, 1, wire.IncrementOps("x", 5))
	f.run(at + 2*tDeltaBound)
	if !cut {
		t.Fatal("the Decide never left")
	}
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("increment aborted: %s", res.Reason)
	}
	f.requireCommonView(2, 3)
	if _, staged := f.nodes[2].Store.StagedBy("x"); !staged {
		t.Fatal("P2 lost its prepared write")
	}
	// P3's copy is locked for the refresh the digest forced, and stays
	// locked while P2 answers busy; P2's own copies were current.
	if !f.nodes[3].Store.RecoveryLocked("x") {
		t.Fatal("P3's x is not under refresh although P2 listed it staged")
	}
	if n := f.refreshStarts("x", at)[2]; n != 0 {
		t.Fatalf("P2 refreshed x %d times; no member could hold a newer version", n)
	}
	// Reads in {2,3} must not return the pre-increment value.
	var reads []uint64
	for i := 0; i < 5; i++ {
		reads = append(reads, f.submit(at+2*tDeltaBound+time.Duration(i)*tDelta, model.ProcID(2+i%2),
			[]wire.Op{wire.ReadOp("x")}))
	}
	healAt := at + 4*tDeltaBound
	f.cluster.At(healAt, "heal", func() { f.topo.FullMesh() })
	f.run(healAt + 4*tDeltaBound)
	f.requireCommonView(1, 2, 3)
	for _, tag := range reads {
		if res := f.results[tag]; res.Committed && res.Reads[0].Val != 5 {
			t.Fatalf("stale read of x = %d while the increment was prepared", res.Reads[0].Val)
		}
	}
	for _, p := range []model.ProcID{1, 2, 3} {
		if got := f.nodes[p].Store.Get("x").Val; got != 5 {
			t.Fatalf("P%v's x = %d after the heal, want 5", p, got)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// timerCounter counts the timers a handler arms through it.
type timerCounter struct {
	net.Runtime
	n int
}

func (c *timerCounter) SetTimer(d time.Duration, key any) net.TimerID {
	c.n++
	return c.Runtime.SetTimer(d, key)
}

// Refreshing N objects arms one watchdog, not one timer per object. The
// peers refuse (they are in another partition), and the cluster still
// converges on one view with nothing left locked.
func TestRefreshArmsOneWatchdog(t *testing.T) {
	for _, useLog := range []bool{false, true} {
		cfg := fixtureConfig()
		cfg.UseLogCatchup = useLog
		objs := objectNames(200)
		f := newFixtureCfg(t, model.FullyReplicated(3, objs...), 3, cfg, 74)
		f.run(tSettled)
		f.requireCommonView(1, 2, 3)
		var counted int
		f.cluster.At(tSettled, "join alone", func() {
			n := f.nodes[3]
			rt := &timerCounter{Runtime: f.cluster.RuntimeFor(3)}
			id := model.VPID{N: n.maxID.N + 1, P: 1}
			n.OnMessage(rt, 1, wire.NewVP{ID: id})
			rt.n = 0
			n.OnMessage(rt, 1, wire.CommitVP{ID: id, View: []model.ProcID{1, 2, 3}})
			counted = rt.n
			if got := len(n.refreshing); got != len(objs) {
				t.Fatalf("log=%v: %d objects refreshing, want %d", useLog, got, len(objs))
			}
		})
		f.run(tSettled + 2*tDeltaBound)
		if counted != 1 {
			t.Fatalf("log=%v: refreshing %d objects armed %d timers, want 1", useLog, len(objs), counted)
		}
		f.requireCommonView(1, 2, 3)
		if got := f.cluster.Reg.Get(metrics.CRefreshing); got != 0 {
			t.Fatalf("log=%v: vp.refreshing = %d once settled, want 0", useLog, got)
		}
	}
}

// A peer that refuses a catch-up (it has not joined yet) is asked again
// once, δ later, for every object it refused, in one CatchupReq; no
// single-object request is sent.
func TestCatchupRefusalRetriedPerPeer(t *testing.T) {
	cfg := fixtureConfig()
	cfg.UseLogCatchup = true
	objs := objectNames(30)
	f := newFixtureCfg(t, model.FullyReplicated(3, objs...), 3, cfg, 75)
	f.record()
	f.run(tSettled)
	f.requireCommonView(1, 2, 3)
	// P2 hears the initiator P1 late, though within the 2δ window: P3
	// joins and asks P2 before P2 has the commit.
	f.cluster.At(tSettled, "create", func() {
		f.topo.SetLatency(1, 2, 9*tDelta/10)
		f.topo.SetLatency(1, 3, tHop/4)
		f.topo.SetLatency(2, 3, tHop/4)
		f.nodes[1].CreateNewVP(f.cluster.RuntimeFor(1), causeNoResponse)
	})
	f.run(tSettled + 2*tDeltaBound)
	f.requireCommonView(1, 2, 3)
	var asked, refused int
	for _, e := range f.cluster.Rec.Events() {
		if e.At < tSettled {
			continue
		}
		if e.Kind == trace.EvMsgRecv && e.Proc == 2 && e.Peer == 3 && e.Msg == "catchupreq" {
			asked++
		}
		if e.Kind == trace.EvMsgRecv && e.Proc == 3 && e.Peer == 2 && e.Msg == "catchupresp" {
			refused++ // the first of them is the refusal
		}
	}
	if asked != 2 || refused != 2 {
		t.Fatalf("P2 received %d CatchupReq from P3 and answered %d, want 2 and 2", asked, refused)
	}
	if got := f.cluster.Reg.Get(metrics.CRefreshing); got != 0 {
		t.Fatalf("vp.refreshing = %d once settled, want 0", got)
	}
}

// Three loopback TCP nodes with 8192 objects and real journals boot into
// one partition: no copy is refreshed, so no catch-up request is sent and
// no refresh times out.
func TestTCPBootWithManyObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	const nobj = 8192
	cat := model.FullyReplicated(3, objectNames(nobj)...)
	cfg := Config{
		Config:        node.Config{Delta: 20 * time.Millisecond, LogCap: 64},
		UseLogCatchup: true,
		UsePrevOpt:    true,
	}
	ports, err := net.LoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1], 3: ports[2]}
	var mu sync.Mutex
	joins := map[model.ProcID][]model.VPID{}
	nodes := map[model.ProcID]*net.TCPNode{}
	for id := model.ProcID(1); id <= 3; id++ {
		state, journal, err := durable.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer journal.Close()
		if !state.MaxID.IsZero() {
			t.Fatal("fresh journal restored state")
		}
		nd := New(id, cfg, cat, nil, journal, nil)
		id := id
		nd.Observer = func(ev any) {
			if j, ok := ev.(JoinEvent); ok {
				mu.Lock()
				joins[id] = append(joins[id], j.VP)
				mu.Unlock()
			}
		}
		nodes[id] = net.NewTCPNode(id, addrs, nd)
	}
	for _, tn := range nodes {
		if err := tn.Run(); err != nil {
			t.Fatal(err)
		}
		defer tn.Stop()
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		done := len(joins[1]) > 0 && len(joins[2]) > 0 && len(joins[3]) > 0
		seen := fmt.Sprint(joins)
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no common partition: joins %s", seen)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let a second creation show, were there one
	mu.Lock()
	defer mu.Unlock()
	for id, tn := range nodes {
		if len(joins[id]) != 1 || joins[id][0] != joins[1][0] {
			t.Errorf("P%v joined %v, want exactly %v", id, joins[id], joins[1][0])
		}
		reg := tn.Metrics()
		if got := reg.Get(metrics.CRefreshSkips); got != nobj {
			t.Errorf("P%v vp.refresh.skipped = %d, want %d", id, got, nobj)
		}
		if got := reg.Get(metrics.CMsgSent + ".catchupreq"); got != 0 {
			t.Errorf("P%v sent %d catchupreq, want 0", id, got)
		}
		if got := reg.Get(createdByCause.Name(causeRefreshTimeout)); got != 0 {
			t.Errorf("P%v created %d partitions on refresh-timeout", id, got)
		}
	}
}

// The previous-partition skip counts only a processor that finished its
// refresh there: one that departed with a copy still stale does not make
// a split-off current. P3 rejoins {1,2} (which wrote x without it), P1
// dies before answering P3's refresh, and {2,3} splits off the common
// partition with P3's copy of x still old.
func TestSplitOffAfterUnfinishedRefresh(t *testing.T) {
	f := prevOptFixture(t, 3, 76, "x")
	f.run(tSettled)
	f.cluster.At(tSettled, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	at := tSettled + 2*tDeltaBound
	tag := f.submit(at, 1, wire.IncrementOps("x", 5))
	f.run(at + tDeltaBound)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("increment aborted: %s", res.Reason)
	}
	// P1 dies as its refresh answer to P3 leaves.
	died := false
	f.onSend = func(from, to model.ProcID, m wire.Message) {
		if _, ok := m.(wire.RecoverReadResp); ok && from == 1 && to == 3 && !died {
			died = true
			f.topo.Crash(1)
		}
	}
	healAt := at + tDeltaBound
	f.cluster.At(healAt, "heal", func() { f.topo.FullMesh() })
	f.run(healAt + 3*tDeltaBound)
	if !died {
		t.Fatal("P1 never answered P3's refresh")
	}
	f.requireCommonView(2, 3)
	if got := f.nodes[3].Store.Get("x").Val; got != 5 {
		t.Fatalf("P3's x = %d in {2,3}, want 5: the split-off skipped a copy left stale", got)
	}
	rTag := f.submit(f.cluster.Engine.Now(), 3, []wire.Op{wire.ReadOp("x")})
	f.run(f.cluster.Engine.Now() + tDeltaBound)
	if res := f.results[rTag]; !res.Committed || res.Reads[0].Val != 5 {
		t.Fatalf("read through P3: %+v", res)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}
