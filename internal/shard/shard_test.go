package shard

import (
	"fmt"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

const (
	tDelta = 2 * time.Millisecond
	tPi    = 40 * time.Millisecond
)

// tBound is the liveness bound Δ = π + 8δ of §5, per shard.
const tBound = tPi + 8*tDelta

func testConfig() core.Config {
	return core.Config{Config: node.Config{Delta: tDelta, LogCap: 64}, Pi: tPi}
}

func testProcs(n int) []model.ProcID {
	ps := make([]model.ProcID, n)
	for i := range ps {
		ps[i] = model.ProcID(i + 1)
	}
	return ps
}

func testObjects(n int) []model.ObjectID {
	os := make([]model.ObjectID, n)
	for i := range os {
		os[i] = model.ObjectID(fmt.Sprintf("o%02d", i))
	}
	return os
}

// findSeed scans placement seeds until pred accepts the resulting map.
// Deterministic: the same scan finds the same seed on every run.
func findSeed(t *testing.T, cfg Config, pred func(*Map) bool) *Map {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		cfg.Seed = seed
		m, err := NewMap(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pred(m) {
			return m
		}
	}
	t.Fatal("no placement seed satisfies the test's shape")
	return nil
}

// objIn returns some object owned by shard s.
func objIn(t *testing.T, m *Map, s model.ShardID) model.ObjectID {
	t.Helper()
	for _, o := range m.Catalog().Objects() {
		if m.ShardOf(o) == s {
			return o
		}
	}
	t.Fatalf("shard %v owns no object", s)
	return ""
}

// coHostedAt3 finds a map on five processors where processor 3 hosts
// two shards that both own objects, and returns those shards and an
// object of each.
func coHostedAt3(t *testing.T) (m *Map, sA, sB model.ShardID, oA, oB model.ObjectID) {
	t.Helper()
	base := Config{Shards: 4, Replicas: 3, Procs: testProcs(5), Objects: testObjects(32)}
	m = findSeed(t, base, func(m *Map) bool {
		n := 0
		for _, s := range m.Hosted(3) {
			for _, o := range m.Catalog().Objects() {
				if m.ShardOf(o) == s {
					n++
					break
				}
			}
		}
		return n >= 2
	})
	sA, sB = m.Hosted(3)[0], m.Hosted(3)[1]
	return m, sA, sB, objIn(t, m, sA), objIn(t, m, sB)
}

// ---------------------------------------------------------------------------
// Shard map determinism
// ---------------------------------------------------------------------------

func TestMapDeterministic(t *testing.T) {
	cfg := Config{Shards: 4, Replicas: 3, Seed: 7,
		Procs: testProcs(5), Objects: testObjects(64)}
	a, err := NewMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same config, different placement")
	}

	// Input order must not matter: placement is a function of the sets.
	rev := cfg
	rev.Procs = []model.ProcID{5, 4, 3, 2, 1}
	rev.Objects = append([]model.ObjectID(nil), cfg.Objects...)
	for i, j := 0, len(rev.Objects)-1; i < j; i, j = i+1, j-1 {
		rev.Objects[i], rev.Objects[j] = rev.Objects[j], rev.Objects[i]
	}
	c, err := NewMap(rev)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("input order changed the placement")
	}

	// A different seed must move something.
	other := cfg
	other.Seed = 8
	d, err := NewMap(other)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("different seeds produced identical placements")
	}

	// Structural invariants: every shard has exactly Replicas members;
	// every object is placed on exactly its shard's copy set; Hosted is
	// the inverse of Members.
	for s := model.ShardID(1); int(s) <= cfg.Shards; s++ {
		if got := a.Members(s).Len(); got != cfg.Replicas {
			t.Fatalf("shard %v has %d members, want %d", s, got, cfg.Replicas)
		}
	}
	for _, o := range a.Catalog().Objects() {
		s := a.ShardOf(o)
		if a.Catalog().Copies(o) != a.Members(s) {
			t.Fatalf("object %q not placed on shard %v's copy set", o, s)
		}
		if a.ShardCatalog(s).Copies(o) != a.Members(s) {
			t.Fatalf("object %q missing from shard %v catalog", o, s)
		}
	}
	for _, p := range cfg.Procs {
		for _, s := range a.Hosted(p) {
			if !a.Members(s).Has(p) {
				t.Fatalf("Hosted(%v) lists %v but Members disagrees", p, s)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Sim fixture: a cluster of Routers
// ---------------------------------------------------------------------------

type fixture struct {
	t        *testing.T
	topo     *net.Topology
	cluster  *net.SimCluster
	hist     *onecopy.History
	m        *Map
	routers  map[model.ProcID]*Router
	disks    map[model.ProcID]durable.VFS
	journals map[model.ProcID]*durable.FileJournal
	results  map[uint64]wire.ClientResult
	nextTag  uint64
}

// journalDir is where a test processor keeps its journal on its disk.
const journalDir = "journal"

// newFixture builds a router cluster. With durable true every processor
// writes through a FileJournal on a memory disk of its own; restored
// (optional) rebuilds the listed processors from a disk whose journal
// holds the given state, and so replays it.
func newFixture(t *testing.T, m *Map, n int, seed int64, durableNodes bool,
	restored map[model.ProcID]*durable.State) *fixture {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		t:        t,
		topo:     topo,
		cluster:  net.NewSimCluster(topo, seed),
		hist:     onecopy.NewHistory(),
		m:        m,
		routers:  make(map[model.ProcID]*Router),
		disks:    make(map[model.ProcID]durable.VFS),
		journals: make(map[model.ProcID]*durable.FileJournal),
		results:  make(map[uint64]wire.ClientResult),
	}
	for _, p := range topo.Procs() {
		var j durable.Journal
		var st *durable.State
		if durableNodes || restored[p] != nil {
			f.disks[p] = diskWith(t, restored[p])
			var fj *durable.FileJournal
			st, fj = openJournal(t, f.disks[p])
			f.journals[p], j = fj, fj
		}
		r := NewRouter(p, testConfig(), m, f.hist, j, st)
		f.routers[p] = r
		f.cluster.AddNode(p, r)
	}
	f.cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		f.results[res.Tag] = res
	}
	f.cluster.Start()
	return f
}

// diskWith returns a memory disk whose journal has recorded st (nil:
// nothing).
func diskWith(t *testing.T, st *durable.State) durable.VFS {
	t.Helper()
	disk := durable.Memory()
	_, j, err := durable.OpenOptions(journalDir, durable.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if st == nil {
		return disk
	}
	j.MaxID(st.MaxID)
	for o, c := range st.Copies {
		j.Apply(o, c.Val, c.Ver)
	}
	for txn, objs := range st.Staged {
		for o, w := range objs {
			j.Stage(txn, o, w)
		}
	}
	for txn, d := range st.Decides {
		j.Decide(txn, d.Commit, d.Pending, d.Shards)
	}
	for txn, v := range st.Votes {
		j.Vote(txn, v)
	}
	return disk
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
func (f *fixture) replay(p model.ProcID) *durable.State {
	f.t.Helper()
	if err := f.journals[p].Sync(); err != nil {
		f.t.Fatal(err)
	}
	st, j := openJournal(f.t, f.disks[p])
	if err := j.Close(); err != nil {
		f.t.Fatal(err)
	}
	return st
}

func (f *fixture) run(until time.Duration) { f.cluster.Run(until) }

func (f *fixture) submit(at time.Duration, p model.ProcID, ops []wire.Op) uint64 {
	f.nextTag++
	tag := f.nextTag
	f.cluster.Submit(at, p, wire.ClientTxn{Tag: tag, Ops: ops})
	return tag
}

// submitUntilCommitted retries ops at p every `every` until committed or
// maxTries attempts; the returned pointer holds the final attempt's tag.
func (f *fixture) submitUntilCommitted(start, every time.Duration, maxTries int,
	p model.ProcID, ops []wire.Op) *uint64 {
	tag := new(uint64)
	var attempt func(at time.Duration, n int)
	attempt = func(at time.Duration, n int) {
		f.nextTag++
		mine := f.nextTag
		*tag = mine
		f.cluster.Submit(at, p, wire.ClientTxn{Tag: mine, Ops: ops})
		f.cluster.At(at+every, fmt.Sprintf("retry-check-%d", mine), func() {
			res, ok := f.results[mine]
			if ok && res.Committed {
				return
			}
			if n < maxTries {
				attempt(f.cluster.Engine.Now(), n+1)
			}
		})
	}
	f.cluster.At(start, "first-attempt", func() { attempt(start, 1) })
	return tag
}

// requireShardLive asserts that every member of shard s is assigned to
// one common partition whose view is exactly the member set.
func (f *fixture) requireShardLive(s model.ShardID) {
	f.t.Helper()
	want := f.m.Members(s)
	var id model.VPID
	for i, p := range f.m.MemberList(s) {
		nd := f.routers[p].Node(s)
		if nd == nil {
			f.t.Fatalf("proc %v hosts no node for shard %v", p, s)
		}
		if !nd.Assigned() {
			f.t.Fatalf("shard %v: %v not assigned (t=%v)", s, p, f.cluster.Engine.Now())
		}
		if i == 0 {
			id = nd.CurID()
		} else if nd.CurID() != id {
			f.t.Fatalf("shard %v: split brain %v vs %v", s, id, nd.CurID())
		}
		if nd.View() != want {
			f.t.Fatalf("shard %v at %v: view %v, want %v", s, p, nd.View(), want)
		}
	}
}

func (f *fixture) requireCommitted(tag uint64, what string) wire.ClientResult {
	f.t.Helper()
	res, ok := f.results[tag]
	if !ok {
		f.t.Fatalf("%s: no result", what)
	}
	if !res.Committed {
		f.t.Fatalf("%s: not committed: %s", what, res.Reason)
	}
	return res
}

// ---------------------------------------------------------------------------
// Cross-shard transactions
// ---------------------------------------------------------------------------

// TestCrossShardCommit drives a live cluster: a transaction whose writes
// span two shards commits atomically and reads back from both.
func TestCrossShardCommit(t *testing.T) {
	base := Config{Shards: 4, Replicas: 3, Procs: testProcs(5), Objects: testObjects(32)}
	m := findSeed(t, base, func(m *Map) bool {
		// Shards 1 and 2 must both own at least one object.
		var a, b bool
		for _, o := range m.Catalog().Objects() {
			switch m.ShardOf(o) {
			case 1:
				a = true
			case 2:
				b = true
			}
		}
		return a && b
	})
	oA, oB := objIn(t, m, 1), objIn(t, m, 2)

	f := newFixture(t, m, 5, 301, false, nil)
	f.run(2 * tBound)
	for s := model.ShardID(1); int(s) <= m.NumShards(); s++ {
		f.requireShardLive(s)
	}

	wTag := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 1,
		[]wire.Op{wire.WriteOp(oA, 41), wire.WriteOp(oB, 42)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	f.requireCommitted(*wTag, "cross-shard write")

	rTag := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 2,
		[]wire.Op{wire.ReadOp(oA), wire.ReadOp(oB)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	res := f.requireCommitted(*rTag, "cross-shard read")
	got := map[model.ObjectID]model.Value{}
	for _, rv := range res.Reads {
		got[rv.Obj] = rv.Val
	}
	if got[oA] != 41 || got[oB] != 42 {
		t.Fatalf("cross-shard read = %v, want %q=41 %q=42", got, oA, oB)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not one-copy serializable: %s", r.Reason)
	}
}

// TestCrossShardDecideSurvivesCoordinatorCrash is the kill -9 case: the
// coordinator journaled a cross-shard commit decision and crashed before
// the participants acknowledged. Rebuilt from its journal, it must
// resume the per-shard Decide fan-out; the participant — whose two shard
// nodes share one journal — must apply BOTH shards' staged writes, and
// both journals must drain.
func TestCrossShardDecideSurvivesCoordinatorCrash(t *testing.T) {
	m, sA, sB, oA, oB := coHostedAt3(t)

	crashTxn := model.TxnID{Start: 123, P: 1, Seq: 9}
	date := model.VPID{N: 50, P: 1}

	// Participant 3: staged writes for both shards, as its shared
	// journal would replay them after the crash.
	st3 := durable.NewState()
	st3.MaxID = model.VPID{N: 4, P: 3}
	st3.Staged[crashTxn] = map[model.ObjectID]durable.StagedWrite{
		oA: {Val: 71, Ver: model.Version{Date: date, Ctr: 5, Writer: crashTxn}},
		oB: {Val: 72, Ver: model.Version{Date: date, Ctr: 6, Writer: crashTxn}},
	}
	// Coordinator 1: the journaled decision, pending the same processor
	// once per shard.
	st1 := durable.NewState()
	st1.Decides[crashTxn] = durable.DecideRec{
		Commit:  true,
		Pending: []model.ProcID{3, 3},
		Shards:  []model.ShardID{sA, sB},
	}

	f := newFixture(t, m, 5, 302, true,
		map[model.ProcID]*durable.State{1: st1, 3: st3})
	f.run(3 * tBound)
	for s := model.ShardID(1); int(s) <= m.NumShards(); s++ {
		f.requireShardLive(s)
	}

	// Both staged writes applied at 3 — neither shard's promise was lost
	// to the other's journal drop.
	if got := f.routers[3].Node(sA).Store.Get(oA); got.Val != 71 {
		t.Fatalf("shard %v staged write not applied: %+v", sA, got)
	}
	if got := f.routers[3].Node(sB).Store.Get(oB); got.Val != 72 {
		t.Fatalf("shard %v staged write not applied: %+v", sB, got)
	}
	// The handshake drained both journals.
	if decides := f.replay(1).Decides; len(decides) != 0 {
		t.Fatalf("decision not cleared from coordinator journal: %+v", decides)
	}
	if staged := f.replay(3).Staged; len(staged) != 0 {
		t.Fatalf("staged writes not cleared from participant journal: %+v", staged)
	}

	// The committed values are visible cluster-wide (rule R5 spread the
	// newest dates during formation).
	rTag := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 2,
		[]wire.Op{wire.ReadOp(oA), wire.ReadOp(oB)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	res := f.requireCommitted(*rTag, "post-recovery read")
	got := map[model.ObjectID]model.Value{}
	for _, rv := range res.Reads {
		got[rv.Obj] = rv.Val
	}
	if got[oA] != 71 || got[oB] != 72 {
		t.Fatalf("post-recovery read = %v, want %q=71 %q=72", got, oA, oB)
	}
}

// Processor 3 hosts shards A and B, one journal under both, and holds a
// transaction's staged writes in each. A's Decide must drop A's staged
// write from that journal and leave B's, which is still B's promise.
func TestDecideLeavesCoHostedShardsStageAlone(t *testing.T) {
	m, sA, sB, oA, oB := coHostedAt3(t)
	txn := model.TxnID{Start: 123, P: 1, Seq: 9}
	ver := model.Version{Date: model.VPID{N: 50, P: 1}, Ctr: 5, Writer: txn}
	st3 := durable.NewState()
	st3.MaxID = model.VPID{N: 4, P: 3}
	st3.Staged[txn] = map[model.ObjectID]durable.StagedWrite{
		oA: {Val: 71, Ver: ver},
		oB: {Val: 72, Ver: ver},
	}
	f := newFixture(t, m, 5, 306, true, map[model.ProcID]*durable.State{3: st3})
	f.cluster.At(tDelta, "decide-A", func() {
		f.routers[3].OnMessage(f.cluster.RuntimeFor(3), 1,
			wire.ShardMsg{Shard: sA, Msg: wire.Decide{Txn: txn, Commit: true}})
	})
	f.run(2 * tDelta)

	staged := f.replay(3).Staged[txn]
	if _, ok := staged[oA]; ok {
		t.Errorf("shard %v's Decide left its staged write of %s in the journal", sA, oA)
	}
	if _, ok := staged[oB]; !ok {
		t.Errorf("shard %v's Decide dropped shard %v's staged write of %s from the journal", sA, sB, oB)
	}
	if got := f.routers[3].Node(sA).Store.Get(oA).Val; got != 71 {
		t.Errorf("shard %v: %s = %d after commit, want 71", sA, oA, got)
	}
	if _, ok := f.routers[3].Node(sB).Store.StagedBy(oB); !ok {
		t.Errorf("shard %v: %s no longer staged", sB, oB)
	}
}

// ---------------------------------------------------------------------------
// Per-shard partition isolation
// ---------------------------------------------------------------------------

// TestSingleShardPartitionIsolation splits exactly one shard's weighted
// majority away from the processors {1,2,3} while every other shard
// keeps a majority there. The stalled shard must refuse (rule R1), the
// others must keep committing reads and writes throughout, and the
// stalled shard must serve again after the heal.
func TestSingleShardPartitionIsolation(t *testing.T) {
	base := Config{Shards: 4, Replicas: 3, Procs: testProcs(5), Objects: testObjects(48)}
	big := model.NewProcSet(1, 2, 3)
	var target model.ShardID
	m := findSeed(t, base, func(m *Map) bool {
		target = 0
		okOthers := true
		for s := model.ShardID(1); int(s) <= 4; s++ {
			in := (m.Members(s) & big).Len()
			switch {
			case in == 1 && target == 0:
				target = s // loses its majority on the {1,2,3} side
			case in == 1:
				okOthers = false // a second shard would stall too
			case in < 2:
				okOthers = false
			}
		}
		if target == 0 || !okOthers {
			return false
		}
		// Both the target and some live shard must own objects.
		if objIn := func(s model.ShardID) bool {
			for _, o := range m.Catalog().Objects() {
				if m.ShardOf(o) == s {
					return true
				}
			}
			return false
		}; !objIn(target) {
			return false
		}
		return true
	})
	var live model.ShardID
	for s := model.ShardID(1); int(s) <= 4; s++ {
		if s != target && (m.Members(s)&big).Len() >= 2 {
			live = s
			break
		}
	}
	oT, oL := objIn(t, m, target), objIn(t, m, live)

	f := newFixture(t, m, 5, 303, false, nil)
	f.run(2 * tBound)
	for s := model.ShardID(1); int(s) <= m.NumShards(); s++ {
		f.requireShardLive(s)
	}

	// Seed both objects with committed values before the fault.
	wT := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 1,
		[]wire.Op{wire.WriteOp(oT, 10)})
	wL := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 1,
		[]wire.Op{wire.WriteOp(oL, 20)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	f.requireCommitted(*wT, "pre-fault write to target shard")
	f.requireCommitted(*wL, "pre-fault write to live shard")

	// Partition {1,2,3} | {4,5}: the target shard has two of its three
	// copies on {4,5}, every other shard keeps a majority on {1,2,3}.
	splitAt := f.cluster.Engine.Now() + tBound
	f.cluster.At(splitAt, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2, 3}, []model.ProcID{4, 5})
	})
	// Let the shards' views re-form on both sides.
	f.run(splitAt + 3*tBound)

	// The live shard keeps serving from the majority side throughout.
	lw := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 1,
		[]wire.Op{wire.WriteOp(oL, 21)})
	f.run(f.cluster.Engine.Now() + 6*tBound)
	f.requireCommitted(*lw, "write to live shard during fault")
	lr := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 2,
		[]wire.Op{wire.ReadOp(oL)})
	f.run(f.cluster.Engine.Now() + 6*tBound)
	if res := f.requireCommitted(*lr, "read of live shard during fault"); res.Reads[0].Val != 21 {
		t.Fatalf("live shard read %v, want 21", res.Reads[0].Val)
	}

	// The target shard is inaccessible from the majority side: rule R1
	// refuses every attempt.
	tTag := f.submit(f.cluster.Engine.Now(), 1, []wire.Op{wire.WriteOp(oT, 11)})
	f.run(f.cluster.Engine.Now() + 6*tBound)
	if res, ok := f.results[tTag]; !ok {
		t.Fatal("write to stalled shard: no result")
	} else if res.Committed {
		t.Fatal("write to stalled shard committed under a minority view")
	}

	// Heal; the stalled shard re-forms and serves again.
	healAt := f.cluster.Engine.Now() + tBound
	f.cluster.At(healAt, "heal", func() { f.topo.FullMesh() })
	f.run(healAt + 4*tBound)
	for s := model.ShardID(1); int(s) <= m.NumShards(); s++ {
		f.requireShardLive(s)
	}
	hw := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 1,
		[]wire.Op{wire.WriteOp(oT, 12)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	f.requireCommitted(*hw, "write to healed shard")
	hr := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 3,
		[]wire.Op{wire.ReadOp(oT)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	if res := f.requireCommitted(*hr, "read of healed shard"); res.Reads[0].Val != 12 {
		t.Fatalf("healed shard read %v, want 12", res.Reads[0].Val)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not one-copy serializable: %s", r.Reason)
	}
}

// ---------------------------------------------------------------------------
// Writes whose locks ride the prepare, across shards
// ---------------------------------------------------------------------------

func (f *fixture) sent(kind string) int64 {
	return f.cluster.Reg.Get("net.msg.sent.shard:" + kind)
}

// A transfer between two shards, coordinated where both are hosted, reads
// its own copies and sends one prepare per remote copy: no lock request
// crosses the network, for either shard.
func TestCrossShardTransferRunsNoLockRound(t *testing.T) {
	base := Config{Shards: 4, Replicas: 3, Procs: testProcs(5), Objects: testObjects(32)}
	var at model.ProcID
	m := findSeed(t, base, func(m *Map) bool {
		for _, p := range testProcs(5) {
			if h := m.Hosted(p); len(h) >= 2 {
				at = p
				return true
			}
		}
		return false
	})
	sA, sB := m.Hosted(at)[0], m.Hosted(at)[1]
	oA, oB := objIn(t, m, sA), objIn(t, m, sB)

	f := newFixture(t, m, 5, 303, false, nil)
	f.run(2 * tBound)
	seed := f.submit(f.cluster.Engine.Now(), at, []wire.Op{wire.WriteOp(oA, 100), wire.WriteOp(oB, 100)})
	f.run(f.cluster.Engine.Now() + tBound)
	f.requireCommitted(seed, "seeding write")
	before := f.sent("lockreq")

	tag := f.submit(f.cluster.Engine.Now(), at, wire.TransferOps(oA, oB, 30))
	f.run(f.cluster.Engine.Now() + tBound)
	f.requireCommitted(tag, "cross-shard transfer")
	if got := f.sent("lockreq") - before; got != 0 {
		t.Errorf("the transfer sent %d lock requests, want 0", got)
	}
	for _, o := range []struct {
		obj  model.ObjectID
		s    model.ShardID
		want model.Value
	}{{oA, sA, 70}, {oB, sB, 130}} {
		for _, p := range m.MemberList(o.s) {
			if got := f.routers[p].Node(o.s).Store.Get(o.obj).Val; got != o.want {
				t.Errorf("%v's copy of %s = %d, want %d", p, o.obj, got, o.want)
			}
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not one-copy serializable: %s", r.Reason)
	}
}

// A coordinator that hosts no copy of the object reads one remote copy —
// the only lock request — and writes all of them through their prepares.
func TestRemoteCoordinatorIncrementsWithOneLockRequest(t *testing.T) {
	base := Config{Shards: 4, Replicas: 3, Procs: testProcs(5), Objects: testObjects(32)}
	m := findSeed(t, base, func(m *Map) bool { return len(m.Hosted(1)) < 4 })
	var s model.ShardID
	for c := model.ShardID(1); int(c) <= m.NumShards(); c++ {
		if !m.Members(c).Has(1) {
			s = c
		}
	}
	obj := objIn(t, m, s)

	f := newFixture(t, m, 5, 304, false, nil)
	f.run(2 * tBound)
	// The first attempt may find the shard's epoch not cached yet.
	warm := f.submitUntilCommitted(f.cluster.Engine.Now(), tBound, 8, 1, []wire.Op{wire.ReadOp(obj)})
	f.run(f.cluster.Engine.Now() + 10*tBound)
	f.requireCommitted(*warm, "warm-up read")
	reqs, preps := f.sent("lockreq"), f.sent("prepare")

	tag := f.submit(f.cluster.Engine.Now(), 1, wire.IncrementOps(obj, 5))
	f.run(f.cluster.Engine.Now() + tBound)
	f.requireCommitted(tag, "increment through a coordinator without a copy")
	if got := f.sent("lockreq") - reqs; got != 1 {
		t.Errorf("%d lock requests sent, want the remote read's 1", got)
	}
	if got := f.sent("prepare") - preps; got != 3 {
		t.Errorf("%d prepares sent, want one per copy", got)
	}
	for _, p := range m.MemberList(s) {
		if got := f.routers[p].Node(s).Store.Get(obj).Val; got != 5 {
			t.Errorf("%v's copy of %s = %d, want 5", p, obj, got)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not one-copy serializable: %s", r.Reason)
	}
}

// A restarted coordinator whose journal holds a cross-shard vote record
// and no decision asks each shard node again, through the router, and
// decides by what they are bound to: all prepared, commit; one with
// nothing on record, abort — and the prepared one drops its write.
func TestCrossShardVoteRecordIsCollectedAgain(t *testing.T) {
	m, sA, sB, oA, oB := coHostedAt3(t)
	crashTxn := model.TxnID{Start: 123, P: 1, Seq: 9}
	date := model.VPID{N: 50, P: 1}

	for _, tc := range []struct {
		name   string
		staged []model.ObjectID // what participant 3's journal replays
		commit bool
	}{
		{"all prepared", []model.ObjectID{oA, oB}, true},
		{"one shard never prepared", []model.ObjectID{oA}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st3 := durable.NewState()
			st3.MaxID = model.VPID{N: 4, P: 3}
			st3.Staged[crashTxn] = map[model.ObjectID]durable.StagedWrite{}
			for _, o := range tc.staged {
				st3.Staged[crashTxn][o] = durable.StagedWrite{Val: 71, Ver: model.Version{Date: date, Ctr: 5, Writer: crashTxn}}
			}
			st1 := durable.NewState()
			st1.Votes[crashTxn] = durable.VoteRec{
				Parts:  []model.ProcID{3, 3},
				Shards: []model.ShardID{sA, sB},
				Epochs: []model.VPID{date, date},
			}
			f := newFixture(t, m, 5, 305, true, map[model.ProcID]*durable.State{1: st1, 3: st3})
			f.run(3 * tBound)
			want := model.Value(0)
			if tc.commit {
				want = 71
			}
			for i, o := range []model.ObjectID{oA, oB} {
				s := []model.ShardID{sA, sB}[i]
				if got := f.routers[3].Node(s).Store.Get(o).Val; got != want {
					t.Errorf("shard %v: %s = %d, want %d", s, o, got, want)
				}
				if _, staged := f.routers[3].Node(s).Store.StagedBy(o); staged {
					t.Errorf("shard %v: %s still staged", s, o)
				}
			}
			if coord := f.replay(1); len(coord.Votes)+len(coord.Decides) != 0 {
				t.Errorf("coordinator journal not drained: %+v %+v", coord.Votes, coord.Decides)
			}
			if staged := f.replay(3).Staged; len(staged) != 0 {
				t.Errorf("participant journal not drained: %+v", staged)
			}
		})
	}
}

// TestNewRouterDecidesFreshOrRestored: an empty replayed state builds a
// router whose shard nodes all start fresh and assigned; a state with a
// max-id builds them all unassigned, to form fresh partitions.
func TestNewRouterDecidesFreshOrRestored(t *testing.T) {
	m, err := NewMap(Config{Shards: 3, Seed: 1, Procs: testProcs(3), Objects: testObjects(6)})
	if err != nil {
		t.Fatal(err)
	}
	restored := durable.NewState()
	restored.MaxID = model.VPID{N: 3, P: 1}
	for _, tc := range []struct {
		st    *durable.State
		fresh bool
	}{{durable.NewState(), true}, {restored, false}} {
		r := NewRouter(1, testConfig(), m, nil, nil, tc.st)
		for _, s := range r.Hosted() {
			if r.Node(s).Assigned() != tc.fresh {
				t.Errorf("shard %v: assigned=%v, want %v", s, r.Node(s).Assigned(), tc.fresh)
			}
		}
	}
}
