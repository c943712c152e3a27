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
// else — and that every crash point the coordinator's unsynced own-stage
// opens recovers by prefix durability. Each node journals to a real
// FileJournal over a nemesis.DiskFaults disk; the simulated cluster
// makes the crash instants exact (link latency is 1ms, so an increment
// submitted at T prepares at T+2ms, is staged remotely at T+3ms and
// decided at T+4ms).

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
	topo := net.NewTopology(n, time.Millisecond)
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
	base := NewBase(p, Config{Delta: 2 * time.Millisecond}, f.cat, &rowaStrategy{cat: f.cat}, f.hist)
	base.Journal = j
	base.Store.SetJournal(j)
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

// A committed write on three replicas costs exactly five journal syncs:
// the coordinator's decide barrier, and at each remote participant the
// prepare barrier (before its yes-vote) and the decide barrier (before
// its ack). The coordinator's own stage and drop-stage ride its decide
// barrier and the next group commit.
func TestCommittedWriteCostsFiveSyncs(t *testing.T) {
	f := newDurableFixture(t, 3, "x")
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	if res := f.results[tag]; !res.Committed {
		t.Fatalf("write did not commit: %+v", res)
	}
	for p, want := range map[model.ProcID]int64{1: 1, 2: 2, 3: 2} {
		if got := f.syncs(p); got != want {
			t.Errorf("node %v performed %d journal syncs, want %d", p, got, want)
		}
	}
	f.expectX(5, 1)
}

// The coordinator dies after staging its own write — unsynced — and
// before its decide barrier. Whatever prefix of its journal survived, no
// decision was ever durable, so none was externalized: the restart
// coordinates nothing, the remote participants (durably prepared) and a
// resurrected own stage resolve by presumed abort, and the write is
// absent everywhere.
func TestCoordinatorKilledBeforeDecideSync(t *testing.T) {
	const T = 100 * time.Millisecond
	for _, tc := range []struct {
		name       string
		flushed    bool  // the interval flusher reached the stage record before the kill
		chop       int64 // bytes torn off the journal tail by the kill
		wantStaged int   // transactions the restart resurrects as prepared
	}{
		{name: "stage lost with the unflushed batch", wantStaged: 1}, // the warm-up write's own stage: decided, re-driven
		{name: "stage torn", flushed: true, chop: 3},
		{name: "stage durable", flushed: true, wantStaged: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDurableFixture(t, 3, "x")
			f.submit(0, 1, wire.IncrementOps("x", 1)) // warm-up: x = 1 everywhere
			doomed := f.submit(T, 1, wire.IncrementOps("x", 5))
			f.cluster.At(T+3500*time.Microsecond, "kill", func() {
				for _, p := range f.topo.Procs() {
					if got := f.bases[p].PreparedTxns(); got != 1 {
						t.Errorf("at the kill node %v has %d prepared transactions, want 1", p, got)
					}
				}
				if got := f.syncs(1); got != 1 {
					t.Errorf("coordinator synced %d times before its second decide, want 1", got)
				}
				if tc.flushed {
					if err := f.journals[1].Sync(); err != nil {
						t.Error(err)
					}
				}
				f.kill(1)
				if tc.chop > 0 {
					if _, err := durable.ChopTail(f.disks[1], f.dirs[1], tc.chop); err != nil {
						t.Error(err)
					}
				}
			})
			f.restartAt(T+10*time.Millisecond, 1)
			f.run(T + 11*time.Millisecond)
			if got := len(f.restored[1].Staged); got != tc.wantStaged {
				t.Fatalf("restart resurrected %d staged transactions, want %d", got, tc.wantStaged)
			}
			if tc.chop > 0 && !f.journals[1].Recovery().Torn {
				t.Fatal("restart found no torn tail")
			}
			f.run(T + 2*time.Second) // past the lock lease: DecideQuery, presumed abort
			if res, ok := f.results[doomed]; ok && res.Committed {
				t.Fatalf("undecided write was reported committed: %+v", res)
			}
			f.expectX(1, 1)
			// The freed locks admit new work on every copy.
			next := f.submit(T+2*time.Second, 2, wire.IncrementOps("x", 2))
			f.run(T + 3*time.Second)
			if res := f.results[next]; !res.Committed {
				t.Fatalf("writer blocked after presumed abort: %+v", res)
			}
			f.expectX(3, 2)
		})
	}
}

// The coordinator dies after its decide barrier — the client has its
// answer — but before the drop of its own stage is durable and before
// any peer received the decision. Its journal's durable prefix ends at
// the decide record, behind the stage records: the restart resurrects
// its own stage as prepared, resumes the decision, re-drives Decide to
// itself and the peers, and every copy holds the write exactly once.
func TestCoordinatorKilledAfterDecideSync(t *testing.T) {
	const T = 100 * time.Millisecond
	f := newDurableFixture(t, 3, "x")
	f.submit(0, 1, wire.IncrementOps("x", 1))
	acked := f.submit(T, 1, wire.IncrementOps("x", 5))
	f.cluster.At(T+4500*time.Microsecond, "kill", func() {
		if res := f.results[acked]; !res.Committed {
			t.Errorf("at the kill the decision is not yet externalized: %+v", res)
		}
		if got := f.bases[1].PreparedTxns(); got != 0 {
			t.Errorf("at the kill the coordinator still holds %d own stages, want 0 (applied, dropped unsynced)", got)
		}
		for _, p := range []model.ProcID{2, 3} {
			if got := f.bases[p].PreparedTxns(); got != 1 {
				t.Errorf("at the kill node %v has %d prepared transactions, want 1 (Decide in flight)", p, got)
			}
		}
		f.kill(1)
	})
	f.restartAt(T+10*time.Millisecond, 1)
	f.run(T + 11*time.Millisecond)
	st := f.restored[1]
	if len(st.Staged) != 1 || len(st.Decides) != 1 {
		t.Fatalf("restart replayed %d staged and %d decided transactions, want 1 and 1", len(st.Staged), len(st.Decides))
	}
	if c := st.Copies["x"]; c.Val != 1 {
		t.Fatalf("restart replayed x = %d, want 1 (the apply was not durable)", c.Val)
	}
	f.run(T + time.Second)
	f.expectX(6, 2)
}

// A disk that fails the coordinator's decide barrier — now the first
// sync it attempts — still halts it with nothing externalized: no client
// result, no Decide, participants left prepared with the write unapplied.
func TestFailedDecideBarrierOnDiskHaltsCoordinator(t *testing.T) {
	f := newDurableFixture(t, 3, "x")
	f.disks[1].FailFsync(true)
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	if res, ok := f.results[tag]; ok {
		t.Fatalf("a result was externalized past a failed decide barrier: %+v", res)
	}
	if !f.bases[1].Halted() {
		t.Fatal("coordinator with a failed decide barrier must halt")
	}
	if got := f.disks[1].FsyncFailures(); got != 1 {
		t.Fatalf("coordinator attempted %d syncs, want 1 (the decide barrier)", got)
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
