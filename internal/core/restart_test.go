package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Crash-restart tests: a processor is killed (its in-memory state
// discarded) and rebuilt from its durable journal into a fresh cluster
// run. The paper's §3 model includes spontaneous processor recovery;
// these tests check the three properties durability exists for — max-id
// uniqueness, copy dates, and prepared-write survival.

// durableFixture runs a sim cluster whose nodes each write through a
// FileJournal on a memory disk of their own, so a "restart" is building
// a new cluster over the same disks: every node replays the bytes its
// journal wrote.
type durableFixture struct {
	*fixture
	disks    map[model.ProcID]durable.VFS
	journals map[model.ProcID]*durable.FileJournal
}

// journalDir is where a test node keeps its journal on its disk.
const journalDir = "journal"

// newDurableFixture boots every processor from its disk in disks, a
// fresh one where none is given.
func newDurableFixture(t *testing.T, cat *model.Catalog, n int, seed int64,
	disks map[model.ProcID]durable.VFS) *durableFixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		t:       t,
		topo:    topo,
		cluster: net.NewSimCluster(topo, seed),
		hist:    onecopy.NewHistory(),
		nodes:   make(map[model.ProcID]*Node),
		results: make(map[uint64]wire.ClientResult),
	}
	df := &durableFixture{fixture: f, disks: make(map[model.ProcID]durable.VFS),
		journals: make(map[model.ProcID]*durable.FileJournal)}
	for _, p := range topo.Procs() {
		disk := disks[p]
		if disk == nil {
			disk = durable.Memory()
		}
		st, j := openJournal(t, disk)
		df.disks[p], df.journals[p] = disk, j
		nd := New(p, fixtureConfig(), cat, f.hist, j, st)
		f.nodes[p] = nd
		f.cluster.AddNode(p, nd)
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return df
}

// powerOff closes every journal, which writes out what it buffered, and
// returns the disks to boot the next cluster from.
func (df *durableFixture) powerOff() map[model.ProcID]durable.VFS {
	for p, j := range df.journals {
		if err := j.Close(); err != nil {
			df.t.Fatalf("close journal of %v: %v", p, err)
		}
	}
	return df.disks
}

// openJournal opens the journal on disk as a restart would, and fails
// the test if recovery had to finish a decided transaction: with no torn
// tail that means a decide left its staged writes on disk, which a
// replay must report rather than repair.
func openJournal(t *testing.T, disk durable.VFS) (*durable.State, *durable.FileJournal) {
	t.Helper()
	st, j, err := durable.OpenOptions(journalDir, durable.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Recovery().Resolved; n != 0 {
		t.Fatalf("journal recovery resolved %d staged transaction(s) left on disk", n)
	}
	return st, j
}

// replay reads p's journal back from its disk, as a restart would.
func (df *durableFixture) replay(p model.ProcID) *durable.State {
	df.t.Helper()
	if err := df.journals[p].Sync(); err != nil {
		df.t.Fatal(err)
	}
	st, j := openJournal(df.t, df.disks[p])
	if err := j.Close(); err != nil {
		df.t.Fatal(err)
	}
	return st
}

// diskWith returns a memory disk whose journal replays as st.
func diskWith(t *testing.T, st *durable.State) durable.VFS {
	t.Helper()
	disk := durable.Memory()
	_, j, err := durable.OpenOptions(journalDir, durable.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	j.MaxID(st.MaxID)
	for o, c := range st.Copies {
		j.Apply(o, c.Val, c.Ver)
	}
	for txn, ws := range st.Staged {
		for o, w := range ws {
			j.Stage(txn, o, w)
		}
	}
	for txn, d := range st.Decides {
		j.Decide(txn, d.Commit, d.Pending, d.Shards)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return disk
}

func TestRestartPreservesDataAndMaxID(t *testing.T) {
	cat := model.FullyReplicated(3, "x", "y")
	f1 := newDurableFixture(t, cat, 3, 81, nil)
	f1.run(tDeltaBound)
	for i := 0; i < 6; i++ {
		f1.submit(tDeltaBound+time.Duration(i)*100*time.Millisecond,
			model.ProcID(i%3+1), wire.IncrementOps("x", 1))
	}
	f1.submit(time.Second, 2, []wire.Op{wire.WriteOp("y", 99)})
	f1.run(2 * time.Second)
	oldMax := map[model.ProcID]model.VPID{}
	for p, nd := range f1.nodes {
		oldMax[p] = nd.maxID
	}

	// "Power off" the whole cluster and rebuild every node from its
	// journal.
	f2 := newDurableFixture(t, cat, 3, 82, f1.powerOff())
	// Restored nodes create new partitions immediately; give them time.
	f2.run(2 * tDeltaBound)
	f2.requireCommonView(1, 2, 3)
	for p, nd := range f2.nodes {
		if !oldMax[p].Less(nd.maxID) {
			t.Fatalf("max-id did not advance across restart at %v: %v -> %v",
				p, oldMax[p], nd.maxID)
		}
	}
	// Values survived.
	rTag := f2.submit(f2.cluster.Engine.Now(), 3, []wire.Op{wire.ReadOp("x"), wire.ReadOp("y")})
	f2.run(f2.cluster.Engine.Now() + time.Second)
	res := f2.results[rTag]
	if !res.Committed {
		t.Fatalf("read after restart aborted: %s", res.Reason)
	}
	got := map[model.ObjectID]model.Value{}
	for _, rv := range res.Reads {
		got[rv.Obj] = rv.Val
	}
	if got["x"] != 6 || got["y"] != 99 {
		t.Fatalf("data lost across restart: %v", got)
	}
	// And the system still works.
	wTag := f2.submit(f2.cluster.Engine.Now(), 1, wire.IncrementOps("x", 1))
	f2.run(f2.cluster.Engine.Now() + time.Second)
	if !f2.results[wTag].Committed {
		t.Fatalf("write after restart aborted: %s", f2.results[wTag].Reason)
	}
}

func TestSingleNodeAmnesiaPrevented(t *testing.T) {
	// Only node 3 restarts; 1 and 2 keep running (fresh cluster run with
	// nodes 1,2 rebuilt from their journals too — the sim engine cannot
	// restart one node in place, but the property under test is node 3's:
	// its copy must carry its pre-crash date so R5 refresh decides
	// correctly, and its max-id must not regress).
	cat := model.FullyReplicated(3, "x")
	f1 := newDurableFixture(t, cat, 3, 83, nil)
	f1.run(tDeltaBound)
	f1.submit(tDeltaBound, 1, []wire.Op{wire.WriteOp("x", 7)})
	f1.run(tDeltaBound + 500*time.Millisecond)
	// Partition node 3 away and write again: 3's copy is now stale.
	f1.cluster.At(f1.cluster.Engine.Now(), "split", func() {
		f1.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	f1.run(f1.cluster.Engine.Now() + 2*tDeltaBound)
	f1.submit(f1.cluster.Engine.Now(), 1, []wire.Op{wire.WriteOp("x", 8)})
	f1.run(f1.cluster.Engine.Now() + 500*time.Millisecond)

	// Restart everyone from journals (3's journal has the stale copy
	// with its old date — NOT a blank value).
	disks := f1.powerOff()
	if x := f1.replay(3).Copies["x"]; x.Val != 7 {
		t.Fatalf("3's journal should hold the stale value 7, got %+v", x)
	}
	f2 := newDurableFixture(t, cat, 3, 84, disks)
	f2.run(2 * tDeltaBound)
	f2.requireCommonView(1, 2, 3)
	// R5 must have refreshed 3's copy to 8 (dates decide, not luck).
	if got := f2.nodes[3].Store.Get("x"); got.Val != 8 {
		t.Fatalf("restarted copy not refreshed: %+v", got)
	}
	rTag := f2.submit(f2.cluster.Engine.Now(), 3, []wire.Op{wire.ReadOp("x")})
	f2.run(f2.cluster.Engine.Now() + time.Second)
	if res := f2.results[rTag]; !res.Committed || res.Reads[0].Val != 8 {
		t.Fatalf("read through restarted node: %+v", res)
	}
}

func TestPreparedWriteSurvivesRestart(t *testing.T) {
	// Seed a participant state with a staged write directly (as if the
	// node crashed between Prepare and Decide) and verify the restored
	// node blocks R5 recovery on that copy until the decision arrives,
	// then applies it.
	cat := model.FullyReplicated(3, "x")
	blockedTxn := model.TxnID{Start: 123, P: 1, Seq: 9}
	ver := model.Version{Date: model.VPID{N: 2, P: 1}, Ctr: 5, Writer: blockedTxn}
	st3 := durable.NewState()
	st3.MaxID = model.VPID{N: 4, P: 3}
	st3.Copies["x"] = model.Copy{Val: 1, Ver: model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: 1}}
	st3.Staged[blockedTxn] = map[model.ObjectID]durable.StagedWrite{
		"x": {Val: 42, Ver: ver},
	}
	// Coordinator (node 1) restored with the matching pending decision,
	// taken in the partition it created.
	st1 := durable.NewState()
	st1.MaxID = ver.Date
	st1.Decides[blockedTxn] = durable.DecideRec{Commit: true, Pending: []model.ProcID{3}}

	f := newDurableFixture(t, cat, 3, 85, map[model.ProcID]durable.VFS{1: diskWith(t, st1), 3: diskWith(t, st3)})
	f.run(2 * tDeltaBound)
	f.requireCommonView(1, 2, 3)
	// The resumed Decide must have committed the staged write at 3.
	if _, staged := f.nodes[3].Store.StagedBy("x"); staged {
		t.Fatal("staged write still pending after resumed decide")
	}
	if got := f.nodes[3].Store.Get("x"); got.Val != 42 {
		t.Fatalf("staged write not applied: %+v", got)
	}
	// The journal must no longer carry the decision.
	if decides := f.replay(1).Decides; len(decides) != 0 {
		t.Fatalf("decision not cleared from coordinator journal: %+v", decides)
	}
	if staged := f.replay(3).Staged; len(staged) != 0 {
		t.Fatalf("staged write not cleared from participant journal: %+v", staged)
	}
}

// TestNewDecidesFreshOrRestored: New starts a fresh, assigned node from
// no replayed state or an empty one, and an unassigned, restored node
// from a state that holds a max-id or a copy.
func TestNewDecidesFreshOrRestored(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	withMaxID := durable.NewState()
	withMaxID.MaxID = model.VPID{N: 4, P: 2}
	withCopy := durable.NewState()
	withCopy.Copies["x"] = model.Copy{Val: 7, Ver: model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: 1}}
	for _, tc := range []struct {
		name  string
		st    *durable.State
		fresh bool
	}{
		{"nil", nil, true},
		{"empty", durable.NewState(), true},
		{"max-id", withMaxID, false},
		{"copy", withCopy, false},
	} {
		nd := New(1, fixtureConfig(), cat, nil, nil, tc.st)
		if nd.Assigned() != tc.fresh || nd.recovered == tc.fresh {
			t.Errorf("%s state: assigned=%v restored=%v, want fresh=%v", tc.name, nd.Assigned(), nd.recovered, tc.fresh)
		}
		if tc.st == withMaxID && nd.maxID != withMaxID.MaxID {
			t.Errorf("restored max-id %v, want %v", nd.maxID, withMaxID.MaxID)
		}
		if tc.st == withCopy && nd.Store.Get("x") != withCopy.Copies["x"] {
			t.Errorf("restored copy %+v, want %+v", nd.Store.Get("x"), withCopy.Copies["x"])
		}
	}
}
