package node

import (
	"fmt"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// These tests cover writes whose exclusive locks ride the Prepare: what
// goes over the network, what a participant checks before it votes, and
// that a prepare waits — and is resumed or refused — wherever a lock
// request would.

func (f *fixture) sent(kind string) int64 {
	return f.cluster.Reg.Get(metrics.CMsgSent + "." + kind)
}

// idle requires that no lock, staged write, prepared or coordinated
// transaction is left anywhere.
func (f *fixture) idle(t *testing.T) {
	t.Helper()
	for _, p := range f.topo.Procs() {
		b := f.bases[p]
		if txns := b.Locks.Txns(); len(txns) != 0 {
			t.Errorf("node %v: locks left for %v", p, txns)
		}
		for _, o := range b.Store.Objects() {
			if txn, ok := b.Store.StagedBy(o); ok {
				t.Errorf("node %v: %s still staged by %v", p, o, txn)
			}
		}
		if b.PreparedTxns() != 0 || b.ActiveTxns() != 0 || len(b.waiting) != 0 || len(b.deferred) != 0 {
			t.Errorf("node %v: %d prepared, %d coordinated, %d queued, %d parked", p,
				b.PreparedTxns(), b.ActiveTxns(), len(b.waiting), len(b.deferred))
		}
	}
}

// A failure-free increment on three copies is one physical-write request
// per copy (Figure 11) and nothing else: no lock round, nine messages.
func TestIncrementRunsNoLockRound(t *testing.T) {
	f := newFixture(t, 3, "x")
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("aborted: %s", res.Reason)
	}
	for kind, want := range map[string]int64{
		"lockreq": 0, "lockresp": 0, "prepare": 2, "vote": 2, "decide": 2, "decideack": 2, "clientresult": 1,
	} {
		if got := f.sent(kind); got != want {
			t.Errorf("%d %s messages sent, want %d", got, kind, want)
		}
	}
	if got := f.cluster.Reg.Get(metrics.CMsgSent); got != 9 {
		t.Errorf("%d messages in all, want 9", got)
	}
	f.idle(t)
}

// A gateway's batch round — read and write each of eight objects — loses
// all eight lock rounds, not one.
func TestBatchRoundRunsNoLockRound(t *testing.T) {
	var objs []model.ObjectID
	var ops []wire.Op
	for i := 0; i < 8; i++ {
		o := model.ObjectID(fmt.Sprintf("o%d", i))
		objs = append(objs, o)
		ops = append(ops, wire.IncrementOps(o, 1)...)
	}
	f := newFixture(t, 3, objs...)
	tag := f.submit(0, 1, ops)
	f.run(time.Second)
	if res := f.results[tag]; !res.Committed || len(res.Writes) != 8 {
		t.Fatalf("batch round: %+v", res)
	}
	if got := f.sent("lockreq"); got != 0 {
		t.Errorf("%d lock requests sent, want 0", got)
	}
	if got := f.sent("prepare"); got != 2 {
		t.Errorf("%d prepares sent, want 2", got)
	}
	f.idle(t)
}

// Two coordinators increment one object at the same instant, round after
// round. Each has read its own copy, so their prepares meet each other's
// read locks: the older one waits, the younger one's prepare dies and its
// no-vote aborts it cleanly. Exactly one commits per round and nothing is
// left behind.
func TestConcurrentIncrementsOneCommitsPerRound(t *testing.T) {
	f := newFixture(t, 3, "x")
	const rounds = 6
	commits := 0
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * 100 * time.Millisecond
		a := f.submit(at, 1, wire.IncrementOps("x", 1))
		b := f.submit(at, 2, wire.IncrementOps("x", 1))
		f.run(at + 90*time.Millisecond)
		ra, rb := f.results[a], f.results[b]
		if ra.Committed == rb.Committed {
			t.Fatalf("round %d: results %+v and %+v, want exactly one commit", r, ra, rb)
		}
		loser := ra
		if ra.Committed {
			loser = rb
		}
		if loser.Reason != "participant voted no (wait-die)" {
			t.Errorf("round %d: loser aborted with %q", r, loser.Reason)
		}
		commits++
		f.idle(t)
	}
	if got := f.cluster.Reg.Get(abortByCause.Name(abortWaitDie)); got != rounds {
		t.Errorf("%d wait_die aborts counted, want %d", got, rounds)
	}
	for _, p := range f.topo.Procs() {
		if got := f.bases[p].Store.Get("x").Val; int(got) != commits {
			t.Errorf("node %v: x = %d after %d commits", p, got, commits)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// The new version is derived from the one the transaction read; a
// participant whose copy is anywhere else votes no.
func TestPrepareVotesNoOffTheBaseVersion(t *testing.T) {
	f := newFixture(t, 3, "x")
	// Node 3's copy runs ahead of what node 1 will read at its own.
	f.bases[3].Store.Apply("x", 7, model.Version{Ctr: 3})
	tag := f.submit(0, 1, wire.IncrementOps("x", 1))
	f.run(time.Second)
	res := f.results[tag]
	if res.Committed {
		t.Fatalf("committed over a copy that was not at the version read: %+v", res)
	}
	if got := f.cluster.Reg.Get(abortByCause.Name(abortBaseVersion)); got != 1 {
		t.Errorf("%d base_version aborts counted, want 1 (reason %q)", got, res.Reason)
	}
	if c := f.bases[3].Store.Get("x"); c.Val != 7 {
		t.Errorf("node 3: x = %d, want 7 untouched", c.Val)
	}
	if got := f.bases[2].Store.Get("x").Val; got != 0 {
		t.Errorf("node 2 applied a refused write: x = %d", got)
	}
	f.idle(t)
}

// A prepare with locks to take waits behind an exclusive lock as a lock
// request would, and goes on to stage and vote when the lock is freed.
func TestPrepareWaitsBehindALock(t *testing.T) {
	f := newFixture(t, 3, "x")
	young := model.TxnID{Start: int64(time.Hour), P: 3, Seq: 1} // younger than anything the test starts
	if got := f.bases[2].Locks.Acquire("x", young, model.LockExclusive); got.String() != "granted" {
		t.Fatal(got)
	}
	tag := f.submit(0, 1, wire.IncrementOps("x", 1))
	f.cluster.At(5*time.Millisecond, "queued", func() {
		if _, ok := f.results[tag]; ok {
			t.Error("answered while node 2's copy was locked")
		}
		if got := len(f.bases[2].waiting); got != 1 {
			t.Errorf("node 2 has %d requests queued, want the prepare", got)
		}
		if got := f.sent("vote"); got != 1 {
			t.Errorf("%d votes sent, want node 3's only", got)
		}
		f.bases[2].HandleMessage(f.cluster.RuntimeFor(2), 3, wire.Release{Txn: young})
	})
	f.run(time.Second)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("prepare did not resume: %+v", res)
	}
	f.idle(t)
}

// Rule R5: a prepare waits for a copy that is being refreshed, as a lock
// request does, and runs when Update-Copies-in-View unlocks it.
func TestPrepareWaitsForRecovery(t *testing.T) {
	f := newFixture(t, 3, "x")
	f.bases[2].Store.LockForRecovery([]model.ObjectID{"x"})
	tag := f.submit(0, 1, wire.IncrementOps("x", 1))
	f.cluster.At(5*time.Millisecond, "refreshed", func() {
		if _, ok := f.results[tag]; ok {
			t.Error("answered while node 2's copy was being refreshed")
		}
		if got := len(f.bases[2].deferred); got != 1 {
			t.Errorf("node 2 has %d accesses parked, want the prepare", got)
		}
		if f.bases[2].Locks.Holds("x", f.results[tag].Txn, model.LockExclusive) || len(f.bases[2].Locks.Txns()) != 0 {
			t.Error("a parked prepare took a lock")
		}
		f.bases[2].Store.UnlockRecovered("x")
		f.bases[2].RecoveryUnlocked(f.cluster.RuntimeFor(2), "x")
	})
	f.run(time.Second)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("prepare did not resume: %+v", res)
	}
	f.idle(t)
}

// A processor that departs its partition refuses what it had parked and
// queued, echoing the epoch the access came with: the coordinator aborts
// on the spot. Without the echo the refusal read as stale and the
// coordinator sat out its whole timeout (20 ms here).
func TestDepartureRefusesParkedAccessesWithTheirEpoch(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []wire.Op
		park func(b *Base)
	}{
		{"lock request behind recovery", []wire.Op{wire.WriteOp("x", 1)}, func(b *Base) {
			b.Store.LockForRecovery([]model.ObjectID{"x"})
		}},
		{"prepare behind recovery", wire.IncrementOps("x", 1), func(b *Base) {
			b.Store.LockForRecovery([]model.ObjectID{"x"})
		}},
		{"prepare behind a prepared transaction's lock", wire.IncrementOps("x", 1), func(b *Base) {
			holder := model.TxnID{Start: int64(time.Hour), P: 3, Seq: 1}
			b.Locks.Acquire("x", holder, model.LockExclusive)
			b.prepared[holder] = &preparedTxn{voted: true}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newEpochFixture(t, 3)
			tc.park(f.bases[2])
			tag := f.submit(0, 1, tc.ops)
			f.cluster.At(4*time.Millisecond, "depart", func() {
				if _, ok := f.results[tag]; ok {
					t.Error("answered before node 2 departed")
				}
				f.bases[2].EpochChanged(f.cluster.RuntimeFor(2), "test departure")
			})
			f.cluster.Run(8 * time.Millisecond) // refusal: one hop; the timeout would be 20 ms
			res, ok := f.results[tag]
			if !ok || res.Committed {
				t.Fatalf("coordinator did not abort on the refusal: %+v (answered %v)", res, ok)
			}
			if got := f.cluster.Reg.Get(abortByCause.Name(abortEpochChanged)); got != 1 {
				t.Errorf("%d epoch_changed aborts counted, want 1 (reason %q)", got, res.Reason)
			}
		})
	}
}

// A participant that dies between staging and voting shows only at the
// vote timeout — there is no lock round left to miss it in. The timeout
// is a lock request's (the prepare had locks to take), and the strategy
// is told who did not vote and since when.
func TestVoteTimeoutReportsTheSilent(t *testing.T) {
	f := newFixture(t, 3, "x")
	var suspects []model.ProcID
	var sent time.Duration
	f.bases[1].Strat = &reportingStrategy{rowaStrategy: rowaStrategy{cat: f.bases[1].Cat},
		report: func(s []model.ProcID, at time.Duration) { suspects, sent = s, at }}
	f.cluster.At(99*time.Millisecond, "crash", func() { f.topo.Crash(3) })
	tag := f.submit(100*time.Millisecond, 1, wire.IncrementOps("x", 1))
	f.run(100*time.Millisecond + f.bases[1].Cfg.voteWait() + time.Millisecond)
	if _, ok := f.results[tag]; ok {
		t.Fatal("a prepare with locks to take was given up after the vote timeout, not a lock request's")
	}
	f.run(time.Second)
	if res := f.results[tag]; res.Committed || res.Reason != "prepare timed out" {
		t.Fatalf("result %+v, want the prepare to time out", res)
	}
	if len(suspects) != 1 || suspects[0] != 3 || sent != 100*time.Millisecond {
		t.Fatalf("strategy told %v silent since %v, want [P3] since the prepares left at 100ms", suspects, sent)
	}
	if got := f.cluster.Reg.Get(abortByCause.Name(abortVoteTimeout)); got != 1 {
		t.Errorf("%d vote_timeout aborts counted, want 1", got)
	}
}

type reportingStrategy struct {
	rowaStrategy
	report func(suspects []model.ProcID, sent time.Duration)
}

func (s *reportingStrategy) OnNoResponse(_ net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
	s.report(suspects, sent)
}

// A transaction's first request waits behind an older holder instead of
// dying (it holds nothing, so nothing can wait for it); a later one keeps
// to wait-die.
func TestFirstRequestWaitsWhereALaterOneDies(t *testing.T) {
	f := newFixture(t, 3, "x", "y")
	old := model.TxnID{Start: -1, P: 3, Seq: 1} // older than anything the test starts
	f.bases[1].Locks.Acquire("y", old, model.LockExclusive)
	first := f.submit(0, 1, []wire.Op{wire.ReadOp("y")})
	later := f.submit(0, 1, []wire.Op{wire.ReadOp("x"), wire.ReadOp("y")})
	f.cluster.At(5*time.Millisecond, "release", func() {
		if _, ok := f.results[first]; ok {
			t.Error("first request answered while the copy was locked")
		}
		if res := f.results[later]; res.Committed || res.Reason != "lock denied (wait-die)" {
			t.Errorf("second request of a transaction holding a lock: %+v, want it to die", res)
		}
		f.bases[1].HandleMessage(f.cluster.RuntimeFor(1), 3, wire.Release{Txn: old})
	})
	f.run(time.Second)
	if res := f.results[first]; !res.Committed {
		t.Fatalf("patient read: %+v", res)
	}
	f.idle(t)
}
