package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// View formation at message speed: a creation commits when every
// processor has answered, the timers bound the wait for those that do
// not. The fixture's links take tHop = δ/2 each way.

const tHop = time.Millisecond

// tSettled is a time by which the fixture's boot partition has formed
// and no probe round is open: rounds open every π from each processor's
// jitter (≤ δ) and close 2δ later.
const tSettled = 3*tPi + 10*tDelta

func (f *fixture) created() int64 { return f.cluster.Reg.Get(metrics.CVPCreated) }

func (f *fixture) createdBy(cause string) int64 {
	return f.cluster.Reg.Get(createdByCause.Name(cause))
}

// inject hands p a message at time at as if from had sent it.
func (f *fixture) inject(at time.Duration, p, from model.ProcID, m wire.Message) {
	f.cluster.At(at, "inject-"+wire.Kind(m), func() {
		f.nodes[p].OnMessage(f.cluster.RuntimeFor(p), from, m)
	})
}

// joinsAfter returns the join events recorded at or after since.
func joinsAfter(events []any, since time.Duration) (out []JoinEvent) {
	for _, ev := range events {
		if j, ok := ev.(JoinEvent); ok && j.At >= since {
			out = append(out, j)
		}
	}
	return out
}

// A probe round belongs to the partition it was opened in: the boot
// rounds open in the singleton partitions and close in the common one,
// with the acks of nobody. Holding those against the new view would
// create a second partition for nothing.
func TestBootFormsOnePartition(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 11)
	// The first round's probes leave by 3·δ/8 (the per-processor
	// stagger); probe, invitation, acceptance and commit are four hops.
	formed := 3*tDelta/8 + 2*tDelta
	f.run(formed + 3*tPi)
	f.requireCommonView(1, 2, 3)
	joins := joinsAfter(f.events, 0)
	if len(joins) != 3 {
		t.Fatalf("%d joins at boot, want one per processor: %+v", len(joins), joins)
	}
	for _, j := range joins {
		if j.At > formed {
			t.Fatalf("%v joined at %v, want within 2δ of the first probes (%v)", j.Proc, j.At, formed)
		}
	}
	if got := f.created(); got != 1 {
		t.Fatalf("%d partitions created at boot, want 1", got)
	}
	if got := f.createdBy(causeHigherProbe); got != 1 {
		t.Fatalf("boot partition not counted under %s", causeHigherProbe)
	}
}

// Acceptances from every processor commit the view in the turn that
// handles the last of them; nothing is left for the 2δ timer to do.
func TestUnanimousAcceptanceCommitsAtOnce(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 12)
	f.run(tSettled)
	before := f.created()
	f.cluster.At(tSettled, "create", func() {
		f.nodes[1].CreateNewVP(f.cluster.RuntimeFor(1), causeNoResponse)
	})
	f.run(tSettled + 4*tDelta)
	joins := joinsAfter(f.events, tSettled)
	if len(joins) != 3 {
		t.Fatalf("%d joins, want 3: %+v", len(joins), joins)
	}
	for _, j := range joins {
		want := tSettled + 3*tHop // invitation, acceptance, commit
		if j.Proc == 1 {
			want = tSettled + 2*tHop
			if j.Cause != causeNoResponse {
				t.Fatalf("initiator's join carries cause %q", j.Cause)
			}
		}
		if j.At != want {
			t.Fatalf("%v joined at +%v, want +%v", j.Proc, j.At-tSettled, want-tSettled)
		}
	}
	if got := f.created() - before; got != 1 {
		t.Fatalf("%d partitions created, want 1 (the 2δ timer must find nothing to do)", got)
	}
	f.requireCommonView(1, 2, 3)
}

// One silent processor: the others are committed when the 2δ window
// closes, exactly as before.
func TestSilentProcessorCostsTheWindow(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 13)
	f.run(tSettled)
	f.cluster.At(tSettled, "crash and create", func() {
		f.topo.Crash(3)
		f.nodes[1].CreateNewVP(f.cluster.RuntimeFor(1), causeNoResponse)
	})
	// A duplicate of 2's acceptance makes two answers, not three.
	f.cluster.At(tSettled+2*tHop+tHop/2, "duplicate", func() {
		n := f.nodes[1]
		n.OnMessage(f.cluster.RuntimeFor(1), 2, n.accepts[2])
	})
	f.run(tSettled + 2*tDelta + 2*tHop)
	for _, j := range joinsAfter(f.events, tSettled) {
		if j.Proc == 1 && j.At != tSettled+2*tDelta {
			t.Fatalf("initiator joined at +%v, want +2δ", j.At-tSettled)
		}
	}
	f.requireCommonView(1, 2)
}

// An acceptance that completes a superseded creation stands it down as
// the timer would have; one that arrives after the commit is ignored.
func TestLateAndSupersededAcceptances(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 14)
	f.run(tSettled)
	var mine model.VPID
	f.cluster.At(tSettled, "crash and create", func() {
		f.topo.Crash(3)
		f.nodes[1].CreateNewVP(f.cluster.RuntimeFor(1), causeNoResponse)
		mine = f.nodes[1].createID
	})
	// Before 2's acceptance arrives, 1 accepts a higher invitation.
	f.cluster.At(tSettled+tHop, "higher invitation", func() {
		f.nodes[1].OnMessage(f.cluster.RuntimeFor(1), 2, wire.NewVP{ID: model.VPID{N: mine.N, P: 2}})
	})
	f.cluster.At(tSettled+2*tHop+tHop/2, "last acceptance", func() {
		f.nodes[1].OnMessage(f.cluster.RuntimeFor(1), 3, wire.AcceptVP{ID: mine, From: 3})
	})
	before, commits := f.created(), f.cluster.Reg.Get(metrics.CMsgSent+".commitvp")
	f.run(tSettled + 3*tHop)
	n := f.nodes[1]
	if n.creating || n.Assigned() || f.created() != before || f.cluster.Reg.Get(metrics.CMsgSent+".commitvp") != commits {
		t.Fatalf("superseded creation %v was not stood down: creating=%v assigned=%v", mine, n.creating, n.Assigned())
	}

	// The accept timeout starts over; {1,2} forms. A straggler's
	// acceptance for that committed creation then changes nothing.
	f.run(tSettled + tDeltaBound)
	f.requireCommonView(1, 2)
	id, before := f.nodes[1].CurID(), f.created()
	at := f.cluster.Engine.Now()
	f.inject(at, id.P, 3, wire.AcceptVP{ID: id, From: 3})
	f.run(at + tHop)
	f.requireCommonView(1, 2)
	if f.nodes[1].CurID() != id || f.created() != before {
		t.Fatal("an acceptance after the commit changed the partition")
	}
}

// A spent invitation creates a partition only at an assigned processor
// whose view does not hold the sender.
func TestStaleInvitation(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(4, "x"), 4, 15)
	f.topo.Crash(4)
	f.run(tSettled)
	f.requireCommonView(1, 2, 3)
	stale := wire.NewVP{ID: model.VPID{N: 0, P: 4}}
	before := f.created()

	// From inside the view: a delayed duplicate, nothing more.
	f.inject(tSettled, 1, 2, wire.NewVP{ID: model.VPID{N: 0, P: 2}})
	// While unassigned: a creation is under way already.
	f.cluster.At(tSettled, "depart", func() { f.nodes[2].depart(f.cluster.RuntimeFor(2), "test") })
	f.inject(tSettled, 2, 4, stale)
	f.run(tSettled + tHop)
	if f.nodes[1].creating || !f.nodes[1].Assigned() || f.nodes[2].creating {
		t.Fatal("a stale invitation from inside the view, or to an unassigned processor, started a creation")
	}

	// From outside the view, assigned: out-number the sender.
	f.inject(tSettled+tHop, 3, 4, stale)
	f.run(tSettled + tHop + 2*tDelta + tHop)
	if got := f.createdBy(causeStaleInvitation); got != 1 || f.created()-before != 1 {
		t.Fatalf("created %d partitions, %d of them for the stale invitation; want 1 and 1", f.created()-before, got)
	}
	f.requireCommonView(1, 2, 3)
}

// A processor killed and restarted with a max-id two behind the
// cluster's: its first invitation is void, and is answered at once.
func TestRestartBehindRejoinsAtMessageSpeed(t *testing.T) {
	const victim = model.ProcID(3)
	cat := model.FullyReplicated(3, "x")
	topo, err := net.NewTopology(3, tHop)
	if err != nil {
		t.Fatal(err)
	}
	cluster := net.NewSimCluster(topo, 16)
	hist := onecopy.NewHistory()
	f := &fixture{t: t, topo: topo, cluster: cluster, hist: hist,
		nodes: map[model.ProcID]*Node{}, results: map[uint64]wire.ClientResult{}}
	cluster.OnClientResult = func(_ model.ProcID, res wire.ClientResult) { f.results[res.Tag] = res }
	hosts := map[model.ProcID]*killable{}
	disks := map[model.ProcID]durable.VFS{}
	journals := map[model.ProcID]*durable.FileJournal{}
	// boot opens p's journal on its disk and builds p from what it
	// replays; it returns the replayed max-id.
	boot := func(p model.ProcID) model.VPID {
		st, j := openJournal(t, disks[p])
		journals[p] = j
		f.nodes[p] = New(p, fixtureConfig(), cat, hist, j, st)
		f.nodes[p].Observer = func(ev any) { f.events = append(f.events, ev) }
		hosts[p].n = f.nodes[p]
		return st.MaxID
	}
	for _, p := range topo.Procs() {
		hosts[p] = &killable{}
		disks[p] = durable.Memory()
		boot(p)
		cluster.AddNode(p, hosts[p])
	}
	cluster.Start()
	f.submit(tSettled, 1, wire.IncrementOps("x", 1))

	// Kill the victim. The survivors notice within a probe period, and
	// two more creations take the cluster's number two past anything the
	// victim's journal has seen.
	kill := tSettled + tPi
	cluster.At(kill, "kill", func() {
		topo.Crash(victim)
		// A crash departs the partition without saying so (for checkS3).
		f.events = append(f.events, DepartEvent{Proc: victim, VP: f.nodes[victim].CurID(), At: kill})
		hosts[victim].n = nil
		if err := journals[victim].Close(); err != nil {
			t.Fatal(err)
		}
	})
	for i := 1; i <= 2; i++ {
		cluster.At(kill+time.Duration(i)*tDeltaBound, "churn", func() {
			f.nodes[1].CreateNewVP(cluster.RuntimeFor(1), causeNoResponse)
		})
	}
	f.submit(kill+3*tDeltaBound, 2, wire.IncrementOps("x", 1))

	// Restart, long enough after the kill for the first incarnation's
	// timers to have lapsed unheard.
	restart := kill + 4*tDeltaBound
	var before int64
	cluster.At(restart, "restart", func() {
		replayed := boot(victim)
		if behind := f.nodes[1].maxID.N - replayed.N; behind < 3 {
			t.Fatalf("cluster at %v, victim's journal at %v: its first invitation would not be stale", f.nodes[1].maxID, replayed)
		}
		before = f.created()
		topo.Recover(victim)
		hosts[victim].Init(cluster.RuntimeFor(victim))
	})
	f.run(restart + 3*tDelta - 1)
	f.requireCommonView(1, 2, 3)
	f.checkS1S2()
	if got := f.created() - before; got > 2 || f.createdBy(causeStaleInvitation) < 1 {
		t.Fatalf("rejoin took %d creations (%d for the stale invitation), want ≤ 2 (≥ 1)", got, f.createdBy(causeStaleInvitation))
	}

	read := f.submit(restart+tDeltaBound, victim, []wire.Op{wire.ReadOp("x")})
	f.run(restart + 2*tDeltaBound)
	if res := f.results[read]; !res.Committed || res.Reads[0].Val != 2 {
		t.Fatalf("read through the rejoined processor: %+v", res)
	}
	checkS3(t, f.events)
	if r := onecopy.CheckGraph(hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A lock request waiting behind an in-doubt write of a dead coordinator
// goes unanswered for as long as the coordinator stays dead — by
// processors that are otherwise talking. That costs the transaction; it
// must not cost the partition, over and over.
func TestBlockedAccessIsNotAMissingProcessor(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x", "y"), 3, 17)
	// 3 coordinates a write and dies with 1 and 2 prepared.
	f.submit(tSettled, 3, []wire.Op{wire.WriteOp("x", 7)})
	var died time.Duration
	for at := tSettled; at < tSettled+4*tDelta; at += tHop / 4 {
		f.cluster.At(at, "kill once prepared", func() {
			if died == 0 && f.nodes[1].HasPrepared("x") && f.nodes[2].HasPrepared("x") {
				f.topo.Crash(3)
				died = f.cluster.Engine.Now()
			}
		})
	}
	f.run(tSettled + tDeltaBound)
	if died == 0 {
		t.Fatal("the write never reached its prepared state")
	}
	f.requireCommonView(1, 2)
	before := f.created()

	// Writes on x wait behind the in-doubt copy and time out; y is free.
	blocked := f.submit(tSettled+tDeltaBound, 1, []wire.Op{wire.WriteOp("x", 8)})
	free := f.submitUntilCommitted(tSettled+tDeltaBound, 2*tDelta, 20, 2, wire.IncrementOps("y", 1))
	lockTimeout := fixtureConfig().WithDefaults().LockTimeout
	f.run(tSettled + tDeltaBound + 4*lockTimeout)
	if res := f.results[blocked]; res.Committed {
		t.Fatalf("a write committed over an in-doubt copy: %+v", res)
	}
	if !f.results[*free].Committed {
		t.Fatal("the unblocked object became unavailable")
	}
	if got := f.created() - before; got != 0 {
		t.Fatalf("%d partitions created while {1,2} only waited for a dead coordinator's decision", got)
	}
	f.requireCommonView(1, 2)

	// The coordinator returns, the doubt resolves, x is writable again.
	f.cluster.At(f.cluster.Engine.Now(), "recover", func() { f.topo.Recover(3) })
	after := f.submitUntilCommitted(f.cluster.Engine.Now()+tDeltaBound, 4*tDelta, 40, 1, []wire.Op{wire.WriteOp("x", 9)})
	f.run(f.cluster.Engine.Now() + 4*tDeltaBound)
	if !f.results[*after].Committed {
		t.Fatalf("x still blocked after the coordinator returned: %+v", f.results[*after])
	}
	if r := onecopy.CheckGraph(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}
