package node

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// These tests pin where the commit path places its journal sync
// barriers — before a promise that leaves the processor, and nowhere
// else — and what a coordinator killed at each point of the commit path
// restarts into. Each node journals to a real FileJournal over a
// nemesis.DiskFaults disk; the simulated cluster makes the crash
// instants exact (link latency is 1ms, so an increment submitted at T
// to a coordinator holding a copy prepares at T — the coordinator's own
// vote is cast and, journal willing, durable at T too — is staged
// remotely at T+1ms, reaches its commit point at T+2ms when the votes
// arrive, and is applied remotely at T+3ms).

// restartable is a node that can be killed and booted again inside one
// simulated cluster. While down it swallows everything, including the
// dead incarnation's timers.
type restartable struct{ h net.Handler }

func (r *restartable) Init(rt net.Runtime) { r.h.Init(rt) }
func (r *restartable) OnMessage(rt net.Runtime, from model.ProcID, m wire.Message) {
	if r.h != nil {
		r.h.OnMessage(rt, from, m)
	}
}
func (r *restartable) OnTimer(rt net.Runtime, key any) {
	if r.h != nil {
		r.h.OnTimer(rt, key)
	}
}

type durableFixture struct {
	*fixture
	t        *testing.T
	cat      *model.Catalog
	dirs     map[model.ProcID]string
	disks    map[model.ProcID]*nemesis.DiskFaults
	journals map[model.ProcID]*durable.FileJournal
	regs     map[model.ProcID]*metrics.Registry // per-node journal counters
	nodes    map[model.ProcID]*restartable
	restored map[model.ProcID]*durable.State // what the last boot replayed
}

func newDurableFixture(t *testing.T, n int, objects ...model.ObjectID) *durableFixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &durableFixture{
		fixture: &fixture{
			topo:    topo,
			cluster: net.NewSimCluster(topo, 42),
			hist:    onecopy.NewHistory(),
			bases:   make(map[model.ProcID]*Base),
			results: make(map[uint64]wire.ClientResult),
		},
		t:        t,
		cat:      model.FullyReplicated(n, objects...),
		dirs:     make(map[model.ProcID]string),
		disks:    make(map[model.ProcID]*nemesis.DiskFaults),
		journals: make(map[model.ProcID]*durable.FileJournal),
		regs:     make(map[model.ProcID]*metrics.Registry),
		nodes:    make(map[model.ProcID]*restartable),
		restored: make(map[model.ProcID]*durable.State),
	}
	for _, p := range topo.Procs() {
		f.dirs[p] = t.TempDir()
		f.disks[p] = nemesis.NewDiskFaults(nil)
		f.regs[p] = metrics.NewRegistry()
		f.nodes[p] = &restartable{}
		f.boot(p)
		f.cluster.AddNode(p, f.nodes[p])
	}
	f.cluster.OnClientResult = func(_ model.ProcID, res wire.ClientResult) { f.results[res.Tag] = res }
	f.cluster.Start()
	t.Cleanup(func() {
		for _, j := range f.journals {
			j.Close() //nolint:errcheck // failed/crashed journals report their injected fault
		}
	})
	return f
}

// boot opens p's journal directory and builds a Base from what it
// replays, as a process start would.
func (f *durableFixture) boot(p model.ProcID) {
	f.t.Helper()
	st, j, err := durable.OpenOptions(f.dirs[p], durable.Options{FS: f.disks[p]})
	if err != nil {
		f.t.Fatalf("open journal of node %v: %v", p, err)
	}
	j.SetMetrics(f.regs[p])
	base := NewBase(p, Config{Delta: 2 * time.Millisecond}, f.cat, &rowaStrategy{cat: f.cat}, f.hist, j)
	base.Store.Restore(st.Copies, st.Staged)
	base.RestoreDurable(st)
	f.bases[p], f.journals[p], f.restored[p] = base, j, st
	f.nodes[p].h = NewSimpleNode(base)
}

// kill stops p as kill -9 would: links cut, handler gone, the journal's
// unflushed batch lost.
func (f *durableFixture) kill(p model.ProcID) {
	f.topo.Crash(p)
	f.nodes[p].h = nil
	f.journals[p].HardCrash()
}

// restartAt boots p from its journal directory at virtual time at.
func (f *durableFixture) restartAt(at time.Duration, p model.ProcID) {
	f.cluster.At(at, "restart", func() {
		f.topo.Recover(p)
		f.boot(p)
		f.nodes[p].Init(f.cluster.RuntimeFor(p))
	})
}

func (f *durableFixture) syncs(p model.ProcID) int64 { return f.regs[p].Get(metrics.CJournalFsyncs) }

// expectX requires every copy of x to hold val at version counter ctr
// with no transaction left prepared or coordinated anywhere.
func (f *durableFixture) expectX(val model.Value, ctr uint64) {
	f.t.Helper()
	for _, p := range f.topo.Procs() {
		b := f.bases[p]
		if c := b.Store.Get("x"); c.Val != val || c.Ver.Ctr != ctr {
			f.t.Errorf("node %v: x = %d at ctr %d, want %d at ctr %d", p, c.Val, c.Ver.Ctr, val, ctr)
		}
		if b.PreparedTxns() != 0 || b.ActiveTxns() != 0 {
			f.t.Errorf("node %v: %d prepared, %d coordinated transactions left", p, b.PreparedTxns(), b.ActiveTxns())
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		f.t.Errorf("not 1SR: %s", r.Reason)
	}
}

// stuckJournal models a committing journal whose committer stops getting
// to its barriers: the first *left flush inline (the simulation has one
// goroutine), the rest stay queued until the node is killed, so what was
// appended behind them is lost with the batch.
type stuckJournal struct {
	*durable.FileJournal
	left *int
}

func (j stuckJournal) Barrier(urgent bool, release func(error)) (bool, error) {
	if *j.left <= 0 {
		return false, nil
	}
	*j.left--
	return j.FileJournal.Barrier(urgent, release)
}

// stickAfter lets p's journal flush n more barriers and no more.
func (f *durableFixture) stickAfter(p model.ProcID, n int) {
	f.bases[p].Journal = stuckJournal{FileJournal: f.journals[p], left: &n}
}

// A committed write on three replicas costs six journal syncs, of which
// the client waits for three at once: the coordinator's vote barrier
// beside the two remote participants' prepare barriers. Behind the
// answer come the coordinator's decision barrier (before the remote
// Decide) and each remote participant's (before its ack). The
// coordinator's own stage and drop-stage ride its vote and decision
// barriers.
func TestCommittedWriteCostsSixSyncs(t *testing.T) {
	f := newDurableFixture(t, 3, "x")
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.cluster.At(1500*time.Microsecond, "voting", func() {
		if got := f.cluster.Reg.Get(metrics.CTxnInDoubt); got != 1 {
			t.Errorf("%d transactions in doubt with the coordinator's vote cast and no decision, want 1", got)
		}
	})
	f.cluster.At(2500*time.Microsecond, "answered", func() {
		if res := f.results[tag]; !res.Committed {
			t.Errorf("no commit at the client one round trip after the submit: %+v", res)
		}
		if got := f.cluster.Reg.Get(metrics.CTxnInDoubt); got != 0 {
			t.Errorf("%d transactions still in doubt after the decision", got)
		}
	})
	f.run(time.Second)
	for p, want := range map[model.ProcID]int64{1: 2, 2: 2, 3: 2} {
		if got := f.syncs(p); got != want {
			t.Errorf("node %v performed %d journal syncs, want %d", p, got, want)
		}
	}
	f.expectX(5, 1)
}

// The coordinator is killed at each point of the commit path in turn. An
// outcome the restart could reverse was never told to anyone; an
// acknowledged commit is never lost; a write nobody was promised is never
// applied.
func TestCoordinatorKilledAlongTheCommitPath(t *testing.T) {
	const T = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		// flushes is how many barriers the coordinator's journal still
		// flushes from T on (-1: all of them); cut isolates node 3 from
		// the coordinator so its prepare is lost; killAt is the instant.
		flushes int
		cut     bool
		killAt  time.Duration
		// at the kill
		answered bool
		// what the restart replays and where it ends up
		votes, decides, staged int
		commit                 bool
	}{
		{name: "vote appended, not durable", flushes: 0, killAt: T + 1500*time.Microsecond},
		{name: "vote durable, votes out, all yes", flushes: -1, killAt: T + 1500*time.Microsecond,
			votes: 1, staged: 1, commit: true},
		{name: "vote durable, votes out, one never prepared", flushes: -1, cut: true, killAt: T + 1500*time.Microsecond,
			votes: 1, staged: 1},
		{name: "committed and answered, decision not durable", flushes: 1, killAt: T + 2500*time.Microsecond,
			answered: true, votes: 1, staged: 1, commit: true},
		{name: "decision durable", flushes: -1, killAt: T + 2500*time.Microsecond,
			answered: true, decides: 1, staged: 1, commit: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDurableFixture(t, 3, "x")
			f.submit(0, 1, wire.IncrementOps("x", 1)) // warm-up: x = 1 everywhere
			f.cluster.At(T-time.Millisecond, "arm", func() {
				if err := f.journals[1].Sync(); err != nil { // the warm-up's tail, so the restart replays this write alone
					t.Error(err)
				}
				if tc.flushes >= 0 {
					f.stickAfter(1, tc.flushes)
				}
				if tc.cut {
					f.topo.SetLink(1, 3, false)
				}
			})
			tag := f.submit(T, 1, wire.IncrementOps("x", 5))
			f.cluster.At(tc.killAt, "kill", func() {
				if res := f.results[tag]; res.Committed != tc.answered {
					t.Errorf("at the kill the client holds %+v, want committed=%v", res, tc.answered)
				}
				// Two Decides went out for the warm-up. This write's may only
				// follow its decision record's flush: a participant that
				// applied and forgot would answer a restart's question with no.
				wantDecides := int64(2 + 2*tc.decides)
				if got := f.cluster.Reg.Get("net.msg.sent.decide"); got != wantDecides {
					t.Errorf("at the kill %d Decide messages have left, want %d", got, wantDecides)
				}
				f.kill(1)
				f.topo.FullMesh()
				f.topo.Crash(1)
			})
			f.restartAt(T+10*time.Millisecond, 1)
			f.run(T + 11*time.Millisecond)
			st := f.restored[1]
			if len(st.Votes) != tc.votes || len(st.Decides) != tc.decides || len(st.Staged) != tc.staged {
				t.Fatalf("restart replayed %d votes, %d decisions, %d staged transactions, want %d, %d, %d",
					len(st.Votes), len(st.Decides), len(st.Staged), tc.votes, tc.decides, tc.staged)
			}
			f.run(T + 2*time.Second) // past the lock lease, for the case nobody is left to ask
			if tc.commit {
				f.expectX(6, 2)
			} else {
				f.expectX(1, 1)
			}
			if got := int(f.cluster.Reg.Get(metrics.CTxnRecollect)); got != tc.votes {
				t.Errorf("restart asked again about %d transactions, want %d", got, tc.votes)
			}
			// Either way the locks are free again.
			next := f.submit(T+2*time.Second, 2, wire.IncrementOps("x", 2))
			f.run(T + 3*time.Second)
			if res := f.results[next]; !res.Committed {
				t.Fatalf("writer blocked after the restart: %+v", res)
			}
		})
	}
}

// A disk that fails the coordinator's vote barrier — the first sync it
// attempts — halts it with nothing externalized: no client result, no
// Decide, participants left prepared with the write unapplied.
func TestFailedVoteBarrierOnDiskHaltsCoordinator(t *testing.T) {
	f := newDurableFixture(t, 3, "x")
	f.disks[1].FailFsync(true)
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	if res, ok := f.results[tag]; ok {
		t.Fatalf("a result was externalized past a failed vote barrier: %+v", res)
	}
	if !f.bases[1].Halted() {
		t.Fatal("coordinator with a failed vote barrier must halt")
	}
	if got := f.disks[1].FsyncFailures(); got != 1 {
		t.Fatalf("coordinator attempted %d syncs, want 1 (the vote barrier)", got)
	}
	for _, p := range []model.ProcID{2, 3} {
		if got := f.bases[p].PreparedTxns(); got != 1 {
			t.Errorf("node %v has %d prepared transactions, want 1", p, got)
		}
		if got := f.bases[p].Store.Get("x").Val; got != 0 {
			t.Errorf("node %v applied an undecided write: x = %d", p, got)
		}
	}
}
