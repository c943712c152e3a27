package durable_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/baseline/rowa"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// These tests cover the committing journal (Options.Committer) — first
// on its own, then under nodes over loopback TCP, where a barrier really
// is released from another goroutine. Every disk is a
// nemesis.DiskFaults, so "a flush is in flight" is an event the test
// waits for (a frozen fsync), not a sleep.

const never = time.Hour // a FlushInterval no test outlives: lazy barriers only ride urgent ones

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func openCommitting(t *testing.T, disk *nemesis.DiskFaults, every time.Duration) (*durable.FileJournal, *metrics.Registry) {
	t.Helper()
	_, j, err := durable.OpenOptions(t.TempDir(), durable.Options{FS: disk, Committer: true, FlushInterval: every})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	j.SetMetrics(reg)
	return j, reg
}

func stage(j *durable.FileJournal, seq int) {
	txn := model.TxnID{Start: int64(seq), P: 1, Seq: uint64(seq)}
	j.Stage(txn, "x", durable.StagedWrite{Val: model.Value(seq), Ver: model.Version{Ctr: uint64(seq)}})
}

// Barriers registered while one fsync is in flight are all released by
// exactly one more.
func TestBarriersBehindAnInFlightFsyncShareTheNext(t *testing.T) {
	const n = 8
	disk := nemesis.NewDiskFaults(nil)
	j, reg := openCommitting(t, disk, never)
	defer j.Close()

	released := make(chan error, n+1)
	barrier := func(urgent bool) {
		if done, _ := j.Barrier(urgent, func(err error) { released <- err }); done {
			t.Fatal("a committing journal must not run the barrier inline")
		}
	}
	disk.Freeze()
	stage(j, 0)
	barrier(true)
	eventually(t, "the first fsync to be in flight", func() bool { return disk.Blocked() == 1 })
	for i := 1; i <= n; i++ {
		stage(j, i)
		barrier(i%2 == 0) // lazy ones ride along
	}
	select {
	case err := <-released:
		t.Fatalf("a barrier was released under a frozen disk (err=%v)", err)
	default:
	}
	disk.Thaw()
	for i := 0; i <= n; i++ {
		if err := <-released; err != nil {
			t.Fatalf("barrier %d failed: %v", i, err)
		}
	}
	if got := reg.Get(metrics.CJournalFsyncs); got != 2 {
		t.Fatalf("%d fsyncs released %d barriers, want 2", got, n+1)
	}
	if w := reg.Samples(metrics.SJournalWaiters); w.Count != 2 || w.Max != n {
		t.Fatalf("waiters per fsync: %d flushes, max %v; want 2 flushes, max %d", w.Count, w.Max, n)
	}
	if f := reg.Samples(metrics.SJournalFlush); f.Count != 2 || f.Max <= 0 {
		t.Fatalf("flush time: %d flushes, max %vms; want 2 flushes, the frozen one above 0", f.Count, f.Max)
	}
	if j.Pending() != 0 {
		t.Fatalf("%d records left unsynced", j.Pending())
	}
}

// A lazy barrier starts no fsync of its own; the age bound of the oldest
// unsynced record does.
func TestLazyBarrierRidesTheAgeDeadline(t *testing.T) {
	j, reg := openCommitting(t, nemesis.NewDiskFaults(nil), 20*time.Millisecond)
	defer j.Close()
	began := time.Now()
	stage(j, 1)
	released := make(chan error, 1)
	j.Barrier(false, func(err error) { released <- err })
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(began); waited < 20*time.Millisecond {
		t.Fatalf("lazy barrier released after %v, before the 20ms age bound", waited)
	}
	if got := reg.Get(metrics.CJournalFsyncs); got != 1 {
		t.Fatalf("%d fsyncs, want 1", got)
	}
}

// A failing fsync fails every barrier waiting on it, and the journal
// stays failed for later ones.
func TestFailedFsyncFailsEveryWaiter(t *testing.T) {
	disk := nemesis.NewDiskFaults(nil)
	j, _ := openCommitting(t, disk, never)
	defer j.Close() //nolint:errcheck // reports the injected fault
	released := make(chan error, 4)
	disk.Freeze()
	stage(j, 0)
	j.Barrier(true, func(err error) { released <- err })
	eventually(t, "the first fsync to be in flight", func() bool { return disk.Blocked() == 1 })
	for i := 1; i <= 2; i++ {
		stage(j, i)
		j.Barrier(true, func(err error) { released <- err })
	}
	disk.FailFsync(true)
	disk.Thaw()
	for i := 0; i < 3; i++ {
		if err := <-released; err == nil {
			t.Fatalf("barrier %d released clean past a failed fsync", i)
		}
	}
	disk.FailFsync(false)
	stage(j, 3)
	j.Barrier(true, func(err error) { released <- err })
	if err := <-released; err == nil {
		t.Fatal("a journal that failed a flush must stay failed")
	}
}

// HardCrash and Close drop the barriers they find waiting without
// running them, and return only once the committer goroutine is gone.
func TestCrashAndCloseAbandonWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		end  func(j *durable.FileJournal)
	}{
		{"hard crash", func(j *durable.FileJournal) { j.HardCrash() }},
		{"close", func(j *durable.FileJournal) { j.Close() }}, //nolint:errcheck // outcome irrelevant here
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := nemesis.NewDiskFaults(nil)
			j, _ := openCommitting(t, disk, never)
			var ran atomic.Int32
			disk.Freeze()
			stage(j, 0)
			j.Barrier(true, func(error) { ran.Add(1) }) // caught mid-fsync
			eventually(t, "the fsync to be in flight", func() bool { return disk.Blocked() == 1 })
			stage(j, 1)
			j.Barrier(true, func(error) { ran.Add(1) }) // still queued
			ended := make(chan struct{})
			go func() {
				tc.end(j)
				close(ended)
			}()
			select {
			case <-ended:
				t.Fatal("returned while the committer was still inside an fsync")
			case <-time.After(20 * time.Millisecond):
			}
			disk.Thaw()
			<-ended
			if got := ran.Load(); got != 0 {
				t.Fatalf("%d abandoned barriers ran", got)
			}
		})
	}
	eventually(t, "the committer goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// LogSince is called from the node's handler thread (rule R5 catch-up):
// it serves records the disk has not taken yet — the batch inside a
// stalled fsync and the one behind it — without waiting for either.
func TestLogSinceDoesNotWaitForTheDisk(t *testing.T) {
	disk := nemesis.NewDiskFaults(nil)
	j, reg := openCommitting(t, disk, never)
	defer j.Close()
	ver := func(ctr uint64) model.Version { return model.Version{Ctr: ctr} }

	j.Apply("x", 1, ver(1))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	disk.Freeze()
	j.Apply("x", 2, ver(2))
	j.Barrier(true, func(error) {})
	eventually(t, "the fsync to be in flight", func() bool { return disk.Blocked() == 1 })
	j.Apply("x", 3, ver(3)) // pending behind the stalled flush

	got := make(chan []model.Copy, 1)
	go func() {
		recs, complete := j.LogSince("x", model.Version{})
		if !complete {
			recs = nil
		}
		got <- recs
	}()
	select {
	case recs := <-got:
		if len(recs) != 3 || recs[0].Ver != ver(1) || recs[1].Ver != ver(2) || recs[2].Ver != ver(3) {
			t.Fatalf("LogSince = %+v, want the flushed, in-flight and pending writes in order", recs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LogSince waited for a frozen disk")
	}
	if got := reg.Get(metrics.CJournalFsyncs); got != 1 {
		t.Fatalf("%d fsyncs completed, want only the explicit Sync", got)
	}
	disk.Thaw()
}

// --- nodes over loopback TCP ---

type liveCluster struct {
	t        *testing.T
	hist     *onecopy.History
	nodes    map[model.ProcID]*net.TCPNode
	clients  map[model.ProcID]*net.Client
	disks    map[model.ProcID]*nemesis.DiskFaults
	journals map[model.ProcID]*durable.FileJournal
	results  chan wire.ClientResult
	early    map[uint64]wire.ClientResult // results read while waiting for another tag
	nextTag  uint64
}

// newLiveCluster boots ROWA nodes (no view management, so every journal
// record and barrier belongs to a transaction) over committing journals.
func newLiveCluster(t *testing.T, cat *model.Catalog, n int, every time.Duration) *liveCluster {
	t.Helper()
	ports, err := net.LoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[model.ProcID]string{}
	for i, addr := range ports {
		addrs[model.ProcID(i+1)] = addr
	}
	lc := &liveCluster{
		t:        t,
		hist:     onecopy.NewHistory(),
		nodes:    make(map[model.ProcID]*net.TCPNode),
		clients:  make(map[model.ProcID]*net.Client),
		disks:    make(map[model.ProcID]*nemesis.DiskFaults),
		journals: make(map[model.ProcID]*durable.FileJournal),
		results:  make(chan wire.ClientResult, 64), // more than any test submits: no sender blocks
		early:    make(map[uint64]wire.ClientResult),
	}
	t.Cleanup(func() {
		for _, d := range lc.disks {
			d.Heal()
		}
		for _, c := range lc.clients {
			c.Close()
		}
		for _, tn := range lc.nodes {
			tn.Stop()
		}
		for _, j := range lc.journals {
			j.Close() //nolint:errcheck // failed journals report their injected fault
		}
	})
	for p := range addrs {
		lc.disks[p] = nemesis.NewDiskFaults(nil)
		_, j, err := durable.OpenOptions(t.TempDir(), durable.Options{FS: lc.disks[p], Committer: true, FlushInterval: every})
		if err != nil {
			t.Fatal(err)
		}
		lc.journals[p] = j
		// No Decide retransmission inside a test: every ack counted is the
		// answer to the one Decide its transaction sent.
		nd := rowa.New(p, node.Config{Delta: 50 * time.Millisecond, DecideRetry: time.Minute}, cat, lc.hist)
		nd.Journal = j
		nd.Store.SetJournal(j)
		tn := net.NewTCPNode(p, addrs, nd)
		j.SetMetrics(tn.Metrics())
		if err := tn.Run(); err != nil {
			t.Fatal(err)
		}
		lc.nodes[p] = tn
		lc.clients[p] = net.NewClient(addrs[p], time.Second)
	}
	return lc
}

// submit sends a transaction to p; its result arrives on lc.results.
func (lc *liveCluster) submit(p model.ProcID, ops []wire.Op) uint64 {
	lc.nextTag++
	tag, c := lc.nextTag, lc.clients[p]
	go func() {
		if res, err := c.Submit(wire.ClientTxn{Tag: tag, Ops: ops}, 10*time.Second); err == nil {
			lc.results <- res
		}
	}()
	return tag
}

func (lc *liveCluster) result(tag uint64) wire.ClientResult {
	lc.t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		if res, ok := lc.early[tag]; ok {
			return res
		}
		select {
		case res := <-lc.results:
			lc.early[res.Tag] = res
		case <-timeout:
			lc.t.Fatalf("no result for tag %d", tag)
		}
	}
}

// count sums a counter over every node.
func (lc *liveCluster) count(name string) int64 {
	var sum int64
	for _, tn := range lc.nodes {
		sum += tn.Metrics().Get(name)
	}
	return sum
}

func (lc *liveCluster) sent(kind string) int64 { return lc.count(metrics.CMsgSent + "." + kind) }

// A committed write on three replicas costs three urgent barriers, side
// by side — the two remote yes-votes and the coordinator's own vote — and
// the client has its answer after them. Neither the decision record nor
// the two decide acknowledgements start an fsync: they wait for the next
// flush that something else asks for.
func TestCommittedWriteCostsThreeUrgentBarriers(t *testing.T) {
	lc := newLiveCluster(t, model.FullyReplicated(3, "x", "y", "z"), 3, never)
	fsyncs := func() int64 { return lc.count(metrics.CJournalFsyncs) }
	write := func(obj model.ObjectID) {
		t.Helper()
		if res := lc.result(lc.submit(1, wire.IncrementOps(obj, 1))); !res.Committed {
			t.Fatalf("write of %s aborted: %+v", obj, res)
		}
	}
	write("x")
	if got := fsyncs(); got != 3 {
		t.Fatalf("first write answered after %d fsyncs, want 3", got)
	}
	if got := lc.sent("decide"); got != 0 {
		t.Fatalf("%d Decides left ahead of the decision record's flush", got)
	}
	// The second write's vote barrier at the coordinator is that next
	// flush: it carries the first write's decision record and lets its
	// Decide go. (Other objects: x stays locked until that Decide lands.)
	write("y")
	eventually(t, "the first write's Decide to follow the second write's flush", func() bool {
		return lc.count(metrics.CMsgDelivered+".decide") == 2
	})
	if got := fsyncs(); got != 6 {
		t.Fatalf("two writes cost %d fsyncs, want 6", got)
	}
	// And the third write's vote barriers at the participants carry the
	// first write's drop-stage records and release its acks (the second
	// write's too, where its Decide got there before the flush began).
	write("z")
	eventually(t, "the first write's acks to follow the third write's flushes", func() bool { return lc.sent("decideack") >= 2 })
	if got := fsyncs(); got != 9 {
		t.Fatalf("three writes cost %d fsyncs, want 9", got)
	}
	if r := onecopy.Check(lc.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A transaction submitted for an object whose last commit has not told
// the other copies yet is held at the coordinator — behind that Decide,
// on the same connections, it finds the locks free where wait-die would
// have killed it — and being waited for makes the lazy flush urgent. So
// does a lock request that runs into the commit's lock at another copy.
func TestWriteBehindAnUntoldCommitWaitsForItsDecide(t *testing.T) {
	lc := newLiveCluster(t, model.FullyReplicated(3, "x"), 3, never)
	submit := func(to model.ProcID, ops []wire.Op) wire.ClientResult {
		t.Helper()
		return lc.result(lc.submit(to, ops))
	}
	for i := 1; i <= 5; i++ {
		if res := submit(1, wire.IncrementOps("x", 1)); !res.Committed {
			t.Fatalf("write %d aborted: %+v", i, res)
		}
	}
	if got := lc.nodes[1].Metrics().Get(metrics.CTxnAbort); got != 0 {
		t.Fatalf("%d aborts among back-to-back writes of one object", got)
	}
	// A reader elsewhere runs into the last write's lock at its own copy:
	// the request dies (it is younger), and nudges that write's coordinator
	// — long before the lease sweep (1.5 s here) would ask.
	began := time.Now()
	res := submit(2, []wire.Op{wire.ReadOp("x")})
	for !res.Committed {
		res = submit(2, []wire.Op{wire.ReadOp("x")})
	}
	if got := res.Reads[0].Val; got != 5 {
		t.Fatalf("read x = %d after five increments", got)
	}
	if took := time.Since(began); took > time.Second {
		t.Fatalf("the reader waited %v for a Decide nobody hurried", took)
	}
}

// With node 2's disk frozen under the yes-vote barrier of one
// transaction, node 2 still answers the lock request of another: the
// handler does not wait for the disk.
func TestFrozenDiskDoesNotBlockOtherTransactions(t *testing.T) {
	all := model.NewProcSet(1, 2, 3)
	cat := model.NewCatalog(
		model.Placement{Object: "x", Holders: all},
		model.Placement{Object: "y", Holders: model.NewProcSet(2)}, // only node 2 can serve y
	)
	lc := newLiveCluster(t, cat, 3, never)
	lc.disks[2].Freeze()
	stuck := lc.submit(1, wire.IncrementOps("x", 5))
	eventually(t, "node 2's vote barrier to sit in the frozen fsync", func() bool { return lc.disks[2].Blocked() == 1 })
	if res := lc.result(lc.submit(3, []wire.Op{wire.ReadOp("y")})); !res.Committed {
		t.Fatalf("read of y through node 2 failed while its disk was frozen: %+v", res)
	}
	lc.disks[2].Thaw()
	lc.result(stuck) // committed, or aborted by the vote timeout: either way it ends
	if r := onecopy.Check(lc.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A participant whose vote barrier fails halts without voting: the one
// vote the coordinator receives is the healthy participant's, and the
// transaction aborts.
func TestFailedBarrierSendsNothing(t *testing.T) {
	lc := newLiveCluster(t, model.FullyReplicated(3, "x"), 3, never)
	lc.disks[2].FailFsync(true)
	if res := lc.result(lc.submit(1, wire.IncrementOps("x", 5))); res.Committed {
		t.Fatalf("committed without node 2's vote: %+v", res)
	}
	if got := lc.sent("vote"); got != 1 {
		t.Fatalf("%d votes crossed the network, want 1 (node 3's)", got)
	}
	if got := lc.count(metrics.CNodeHalted); got != 1 {
		t.Fatalf("node.halted = %d, want 1", got)
	}
	if got := lc.sent("decideack"); got != 0 {
		// Node 3's ack is lazy and nothing flushes after the abort.
		t.Fatalf("%d decide acks sent", got)
	}
}

// The simulator has no way back onto a handler's thread from the
// committer goroutine; a committing journal under it is refused when the
// node starts, not when the first barrier is released.
func TestCommittingJournalRefusesAnEngineThatCannotPost(t *testing.T) {
	cat := model.FullyReplicated(1, "x")
	j, _ := openCommitting(t, nemesis.NewDiskFaults(nil), never)
	defer j.Close()
	nd := rowa.New(1, node.Config{Delta: time.Millisecond}, cat, onecopy.NewHistory())
	nd.Journal = j
	topo, err := net.NewTopology(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sim := net.NewSimCluster(topo, 1)
	sim.AddNode(1, nd)
	defer func() {
		if recover() == nil {
			t.Fatal("a node with a committing journal started on the simulator")
		}
	}()
	sim.Start()
	sim.Run(time.Millisecond)
}

func TestFlushIntervalWithoutCommitterIsRefused(t *testing.T) {
	if _, _, err := durable.OpenOptions(t.TempDir(), durable.Options{FlushInterval: time.Millisecond}); err == nil {
		t.Fatal("opened a journal whose age deadline nothing would ever serve")
	}
}
