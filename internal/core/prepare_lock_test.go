package core

import (
	"testing"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// These tests run writes whose exclusive locks ride the Prepare under
// the virtual partition protocol: what a logical write costs inside a
// view, and how a copy that died is found now that no lock round would
// miss it.

// txnTraffic counts the transaction-processing messages sent so far.
func (f *fixture) txnTraffic() map[string]int64 {
	out := map[string]int64{}
	for _, k := range []string{"lockreq", "lockresp", "prepare", "vote", "decide", "decideack", "release", "clientresult"} {
		out[k] = f.cluster.Reg.Get(metrics.CMsgSent + "." + k)
	}
	return out
}

func (f *fixture) trafficSince(before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range f.txnTraffic() {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func sameTraffic(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Logical-Write as Figure 11 has it: in a view of three copies an
// increment coordinated at one of them is a prepare, a vote, a decision
// and its acknowledgement per remote copy, and the client's answer.
func TestIncrementInAViewIsNineMessages(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 61)
	f.run(tSettled)
	before := f.txnTraffic()
	tag := f.submit(tSettled, 1, wire.IncrementOps("x", 7))
	f.run(tSettled + tDeltaBound)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	want := map[string]int64{"prepare": 2, "vote": 2, "decide": 2, "decideack": 2, "clientresult": 1}
	if got := f.trafficSince(before); !sameTraffic(got, want) {
		t.Fatalf("messages sent %v, want %v", got, want)
	}
}

// A coordinator that holds no copy of the object reads the nearest one —
// the one lock request of the transaction — and writes every copy in the
// view through its prepare.
func TestCoordinatorWithoutACopy(t *testing.T) {
	cat := model.NewCatalog(model.Placement{Object: "x", Holders: model.NewProcSet(1, 2, 3)})
	f := newFixture(t, cat, 4, 62)
	f.run(tSettled)
	f.requireCommonView(1, 2, 3, 4)
	before := f.txnTraffic()
	tag := f.submit(tSettled, 4, wire.IncrementOps("x", 7))
	f.run(tSettled + tDeltaBound)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	want := map[string]int64{"lockreq": 1, "lockresp": 1, "prepare": 3, "vote": 3, "decide": 3, "decideack": 3, "clientresult": 1}
	if got := f.trafficSince(before); !sameTraffic(got, want) {
		t.Fatalf("messages sent %v, want %v", got, want)
	}
	for _, p := range []model.ProcID{1, 2, 3} {
		if got := f.nodes[p].Store.Get("x").Val; got != 7 {
			t.Errorf("copy at %v = %d, want 7", p, got)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A write target that died since the last probe shows at the vote
// timeout, which for a prepare with locks to take is a lock request's:
// the no-response exception creates the next partition then, without
// waiting for the probe period, and the write goes through in it.
func TestDeadWriteTargetIsFoundAtTheVoteTimeout(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 63)
	f.run(tSettled)
	f.requireCommonView(1, 2, 3)
	lockTimeout := fixtureConfig().WithDefaults().LockTimeout
	if lockTimeout >= tPi {
		t.Fatalf("fixture: a lock timeout of %v cannot beat the probe period %v", lockTimeout, tPi)
	}
	// Right after a probe round closed, so the next one is a period away.
	f.cluster.At(tSettled, "crash", func() { f.topo.Crash(3) })
	doomed := f.submit(tSettled+tHop, 1, wire.IncrementOps("x", 1))
	f.run(tSettled + tHop + lockTimeout + tHop)
	if res, ok := f.results[doomed]; !ok || res.Committed || res.Reason != "prepare timed out" {
		t.Fatalf("write to a dead copy: %+v (answered %v), want the prepare to time out after %v", res, ok, lockTimeout)
	}
	if got := f.createdBy("no-response"); got != 0 {
		t.Fatalf("%d partitions committed already", got)
	}
	retry := f.submitUntilCommitted(f.cluster.Engine.Now(), 2*tDelta, 10, 1, wire.IncrementOps("x", 1))
	f.run(tSettled + lockTimeout + 6*tDelta)
	f.requireCommonView(1, 2)
	if got := f.createdBy("no-response"); got != 1 {
		t.Errorf("%d partitions created for a no-response, want 1", got)
	}
	if !f.results[*retry].Committed {
		t.Fatalf("no write committed in the new partition within the lock timeout + 6δ: %+v", f.results[*retry])
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A copy being refreshed makes a prepare wait for it (rule R5), and the
// refresh reads the peers' copies — which that very prepare has staged
// already. A write dated with the current partition goes through the
// refreshing copy too and cannot commit without its vote, so the peers
// serve their committed value, the refresh ends, the prepare runs. Were
// the staged copies "busy" (§6 condition (3)) to this reader, each side
// would wait for the other until the vote timeout.
func TestPrepareAndRefreshDoNotWaitForEachOther(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 64)
	f.run(tSettled)
	f.requireCommonView(1, 2, 3)
	n3 := f.nodes[3]
	f.cluster.At(tSettled, "lock", func() { n3.Store.LockForRecovery([]model.ObjectID{"x"}) })
	tag := f.submit(tSettled, 1, wire.IncrementOps("x", 1))
	// The prepares are staged at 1 and 2 and parked at 3 when 3 gets to
	// reading their copies.
	f.cluster.At(tSettled+tHop+tHop/2, "refresh", func() {
		if !f.nodes[2].HasPrepared("x") || n3.HasPrepared("x") {
			t.Errorf("prepared at 2: %v, at 3: %v; want the write staged at 2 and waiting at 3",
				f.nodes[2].HasPrepared("x"), n3.HasPrepared("x"))
		}
		n3.startRefresh(f.cluster.RuntimeFor(3), []model.ObjectID{"x"})
	})
	lockTimeout := fixtureConfig().WithDefaults().LockTimeout
	f.run(tSettled + lockTimeout/2)
	if res, ok := f.results[tag]; !ok || !res.Committed {
		t.Fatalf("write not committed half a lock timeout after its submit: %+v (answered %v)", res, ok)
	}
	f.run(tSettled + tDeltaBound)
	for _, p := range f.topo.Procs() {
		if got := f.nodes[p].Store.Get("x").Val; got != 1 {
			t.Errorf("copy at %v = %d, want 1", p, got)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}
