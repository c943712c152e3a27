package node

import (
	"errors"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// epochStrategy is a minimal epoch-enforcing strategy for exercising the
// Base's R4-style paths (EpochChanged, deferral, migration) without the
// full VP machinery: the harness flips a shared epoch value.
type epochStrategy struct {
	cat        *model.Catalog
	epoch      *model.VPID // shared across all nodes in the test
	transition *bool       // when true, servers defer instead of refusing
}

func (s *epochStrategy) Name() string { return "test-epoch" }

func (s *epochStrategy) Begin(rt net.Runtime, _ model.ShardID) (Epoch, error) {
	if s.epoch.IsZero() {
		return Epoch{}, errors.New("unassigned")
	}
	return Epoch{VP: *s.epoch, Has: true}, nil
}

func (s *epochStrategy) StillValid(rt net.Runtime, _ model.ShardID, e Epoch) bool {
	return e.Has && e.VP == *s.epoch
}

func (s *epochStrategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (Plan, error) {
	return AllOf(s.cat, obj, []model.ProcID{s.cat.Copies(obj).Sorted()[0]}), nil
}

func (s *epochStrategy) WritePlan(rt net.Runtime, obj model.ObjectID) (Plan, error) {
	plan := AllOf(s.cat, obj, s.cat.Copies(obj).Sorted())
	plan.LockAtPrepare = true // as the VP strategy: the view's copies are one copy
	return plan, nil
}

func (s *epochStrategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

func (s *epochStrategy) AcceptAccess(rt net.Runtime, e Epoch) bool {
	return e.Has && e.VP == *s.epoch
}

func (s *epochStrategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
}

func (s *epochStrategy) InTransition(rt net.Runtime) bool { return *s.transition }

var _ Strategy = (*epochStrategy)(nil)
var _ TransitionAware = (*epochStrategy)(nil)

type epochFixture struct {
	cluster    *net.SimCluster
	bases      map[model.ProcID]*Base
	results    map[uint64]wire.ClientResult
	epoch      model.VPID
	transition bool
	nextTag    uint64
}

func newEpochFixture(t *testing.T, n int) *epochFixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &epochFixture{
		cluster: net.NewSimCluster(topo, 5),
		bases:   make(map[model.ProcID]*Base),
		results: make(map[uint64]wire.ClientResult),
		epoch:   model.VPID{N: 1, P: 1},
	}
	cat := model.FullyReplicated(n, "x", "y")
	hist := onecopy.NewHistory()
	for _, p := range topo.Procs() {
		strat := &epochStrategy{cat: cat, epoch: &f.epoch, transition: &f.transition}
		b := NewBase(p, Config{Delta: 2 * time.Millisecond}, cat, strat, hist, nil)
		f.bases[p] = b
		f.cluster.AddNode(p, NewSimpleNode(b))
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return f
}

func (f *epochFixture) submit(at time.Duration, p model.ProcID, ops []wire.Op) uint64 {
	f.nextTag++
	f.cluster.Submit(at, p, wire.ClientTxn{Tag: f.nextTag, Ops: ops})
	return f.nextTag
}

func TestEpochChangedAbortsActive(t *testing.T) {
	f := newEpochFixture(t, 3)
	// A long transaction: many ops, coordinated away from the copy the
	// reads go to (a round trip each), so it is surely in flight at the flip.
	var ops []wire.Op
	for i := 0; i < 20; i++ {
		ops = append(ops, wire.IncrementOps("x", 1)...)
	}
	tag := f.submit(0, 2, ops)
	f.cluster.At(5*time.Millisecond, "flip", func() {
		// Flip the epoch and notify every node, exactly as a VP node does
		// when it departs its partition (rule R4).
		f.epoch = model.VPID{N: 2, P: 1}
		for _, p := range []model.ProcID{1, 2, 3} {
			f.bases[p].EpochChanged(mustRuntime(f, p), "test epoch flip")
		}
	})
	f.cluster.Run(2 * time.Second)
	res := f.results[tag]
	if res.Committed {
		t.Fatal("transaction spanning an epoch flip must not commit")
	}
	if res.Reason == "" {
		t.Fatal("abort must carry a reason")
	}
	if f.bases[2].ActiveTxns() != 0 {
		t.Fatalf("active txns leaked: %d", f.bases[2].ActiveTxns())
	}
	// Server-side locks of the aborted transaction are gone everywhere.
	for _, p := range []model.ProcID{1, 2, 3} {
		if n := len(f.bases[p].Locks.Txns()); n != 0 {
			t.Fatalf("locks leaked at %v: %d", p, n)
		}
	}
}

func TestTransitionDefersAndFlushes(t *testing.T) {
	f := newEpochFixture(t, 2)
	// Enter transition with a mismatched epoch: requests park.
	f.cluster.At(0, "enter-transition", func() {
		f.transition = true
		f.epoch = model.VPID{} // unassigned: Begin fails, servers defer
	})
	// A remote request arrives during transition (from node 1 txn begun
	// just before the flip is impossible here since Begin fails; instead
	// inject a raw LockReq as if from an old partition).
	oldEpoch := model.VPID{N: 1, P: 1}
	txn := model.TxnID{Start: 1, P: 1, Seq: 1}
	f.cluster.At(time.Millisecond, "inject", func() {
		f.cluster.Node(2).(SimpleNode).HandleMessage(
			mustRuntime(f, 2), 1,
			wire.LockReq{Txn: txn, Obj: "x", Mode: model.LockShared, Epoch: oldEpoch, HasEpoch: true})
	})
	f.cluster.Run(10 * time.Millisecond)
	// Nothing granted yet and nothing refused: the request is parked.
	if f.bases[2].Locks.Holds("x", txn, model.LockShared) {
		t.Fatal("parked request acquired a lock")
	}
	// Leave transition with the OLD epoch current again: flush admits it.
	// (Assert at flush time: the LockResp then reaches node 1, which has
	// no such transaction and correctly releases the straggler grant.)
	granted := false
	f.cluster.At(11*time.Millisecond, "exit-transition", func() {
		f.transition = false
		f.epoch = oldEpoch
		f.bases[2].FlushDeferred(mustRuntime(f, 2))
		granted = f.bases[2].Locks.Holds("x", txn, model.LockShared)
	})
	f.cluster.Run(30 * time.Millisecond)
	if !granted {
		t.Fatal("flushed request was not admitted")
	}
	if f.bases[2].Locks.Holds("x", txn, model.LockShared) {
		t.Fatal("straggler grant should have been released by the unknowing coordinator")
	}
}

// mustRuntime retrieves a node's runtime by round-tripping through a
// message (the SimCluster owns the runtimes). For these white-box tests
// a tiny shim suffices: capture it from a timer callback.
func mustRuntime(f *epochFixture, p model.ProcID) net.Runtime {
	return f.cluster.RuntimeFor(p)
}

func TestBaseAccessors(t *testing.T) {
	f := newEpochFixture(t, 2)
	f.cluster.Run(time.Millisecond)
	b := f.bases[1]
	if b.ActiveTxns() != 0 || b.PreparedTxns() != 0 || b.HasPrepared("x") {
		t.Fatal("fresh base should be idle")
	}
	// Stage a write directly: HasPrepared reflects it.
	txn := model.TxnID{Start: 1, P: 2, Seq: 1}
	b.Store.Stage("x", txn, 1, model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: 1})
	if !b.HasPrepared("x") {
		t.Fatal("HasPrepared should see the staged write")
	}
}

func TestRestoreDurableRebuildsPrepared(t *testing.T) {
	f := newEpochFixture(t, 2)
	st := durable.NewState()
	txn := model.TxnID{Start: 3, P: 2, Seq: 1}
	st.Staged[txn] = map[model.ObjectID]durable.StagedWrite{
		"x": {Val: 9, Ver: model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: 1}},
	}
	b := f.bases[1]
	b.RestoreDurable(st)
	if b.PreparedTxns() != 1 {
		t.Fatalf("prepared = %d", b.PreparedTxns())
	}
	// The implied exclusive lock is re-held: another txn dies or queues.
	if got := b.Locks.Acquire("x", model.TxnID{Start: 9, P: 1, Seq: 9}, model.LockShared); got.String() == "granted" {
		t.Fatal("restored prepared lock not held")
	}
}

// TestSortTxnIDs: the coordinator walks its transactions oldest first.
func TestSortTxnIDs(t *testing.T) {
	ids := model.SortedTxns(map[model.TxnID]bool{
		{Start: 3, P: 1, Seq: 1}: true,
		{Start: 1, P: 2, Seq: 1}: true,
		{Start: 1, P: 1, Seq: 1}: true,
	})
	if len(ids) != 3 || !(ids[0].Less(ids[1]) && ids[1].Less(ids[2])) {
		t.Fatalf("not sorted: %v", ids)
	}
}
