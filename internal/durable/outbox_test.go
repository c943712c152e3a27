package durable_test

import (
	stdnet "net"
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
// on its own, then under nodes on the real-time engine, where a barrier
// really is released from another goroutine. Every disk is a
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

	got := make(chan []durable.LogRec, 1)
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

// --- nodes on the real-time engine ---

type liveCluster struct {
	t        *testing.T
	c        *net.RealCluster
	hist     *onecopy.History
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
	lc := &liveCluster{
		t:        t,
		c:        net.NewRealCluster(net.NewTopology(n, 50*time.Microsecond)),
		hist:     onecopy.NewHistory(),
		disks:    make(map[model.ProcID]*nemesis.DiskFaults),
		journals: make(map[model.ProcID]*durable.FileJournal),
		results:  make(chan wire.ClientResult, 16),
		early:    make(map[uint64]wire.ClientResult),
	}
	for p := model.ProcID(1); int(p) <= n; p++ {
		lc.disks[p] = nemesis.NewDiskFaults(nil)
		_, j, err := durable.OpenOptions(t.TempDir(), durable.Options{FS: lc.disks[p], Committer: true, FlushInterval: every})
		if err != nil {
			t.Fatal(err)
		}
		j.SetMetrics(lc.c.Reg)
		lc.journals[p] = j
		// No Decide retransmission inside a test: every ack counted is the
		// answer to the one Decide its transaction sent.
		nd := rowa.New(p, node.Config{Delta: 50 * time.Millisecond, DecideRetry: time.Minute}, cat, lc.hist)
		nd.Journal = j
		nd.Store.SetJournal(j)
		lc.c.AddNode(p, nd)
	}
	lc.c.OnClientResult = func(_ model.ProcID, res wire.ClientResult) { lc.results <- res }
	lc.c.Start()
	t.Cleanup(func() {
		for _, d := range lc.disks {
			d.Heal()
		}
		lc.c.Stop()
		for _, j := range lc.journals {
			j.Close() //nolint:errcheck // failed journals report their injected fault
		}
	})
	return lc
}

func (lc *liveCluster) submit(p model.ProcID, ops []wire.Op) uint64 {
	lc.nextTag++
	lc.c.Submit(p, wire.ClientTxn{Tag: lc.nextTag, Ops: ops})
	return lc.nextTag
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

func (lc *liveCluster) sent(kind string) int64 {
	return lc.c.Reg.Get(metrics.CMsgSent + "." + kind)
}

// A committed write on three replicas costs three urgent barriers, side
// by side — the two remote yes-votes and the coordinator's own vote — and
// the client has its answer after them. Neither the decision record nor
// the two decide acknowledgements start an fsync: they wait for the next
// flush that something else asks for.
func TestCommittedWriteCostsThreeUrgentBarriers(t *testing.T) {
	lc := newLiveCluster(t, model.FullyReplicated(3, "x", "y", "z"), 3, never)
	fsyncs := func() int64 { return lc.c.Reg.Get(metrics.CJournalFsyncs) }
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
	// (Delivered, not just sent: RealCluster times every message on its
	// own, and the third write's prepares must not overtake them.)
	eventually(t, "the first write's Decide to follow the second write's flush", func() bool {
		return lc.c.Reg.Get(metrics.CMsgDelivered+".decide") == 2
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
// (Over TCP: a connection keeps the order the hold relies on, RealCluster
// times every message on its own.)
func TestWriteBehindAnUntoldCommitWaitsForItsDecide(t *testing.T) {
	addrs := map[model.ProcID]string{}
	for id := model.ProcID(1); id <= 3; id++ {
		l, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = l.Addr().String()
		l.Close()
	}
	cat := model.FullyReplicated(3, "x")
	var coord *net.TCPNode
	for id := model.ProcID(1); id <= 3; id++ {
		_, j, err := durable.OpenOptions(t.TempDir(), durable.Options{Committer: true, FlushInterval: never})
		if err != nil {
			t.Fatal(err)
		}
		nd := rowa.New(id, node.Config{Delta: 50 * time.Millisecond}, cat, nil)
		nd.Journal = j
		nd.Store.SetJournal(j)
		tn := net.NewTCPNode(id, addrs, nd)
		if err := tn.Run(); err != nil {
			t.Fatal(err)
		}
		if id == 1 {
			coord = tn
		}
		t.Cleanup(func() {
			tn.Stop()
			j.Close() //nolint:errcheck // nothing was injected
		})
	}
	submit := func(to model.ProcID, tag uint64, ops []wire.Op) wire.ClientResult {
		t.Helper()
		res, err := net.SubmitTCP(addrs[to], wire.ClientTxn{Tag: tag, Ops: ops}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := uint64(1); i <= 5; i++ {
		if res := submit(1, i, wire.IncrementOps("x", 1)); !res.Committed {
			t.Fatalf("write %d aborted: %+v", i, res)
		}
	}
	if got := coord.Metrics().Get(metrics.CTxnAbort); got != 0 {
		t.Fatalf("%d aborts among back-to-back writes of one object", got)
	}
	// A reader elsewhere runs into the last write's lock at its own copy:
	// the request dies (it is younger), and nudges that write's coordinator
	// — long before the lease sweep (1.5 s here) would ask.
	began := time.Now()
	res := submit(2, 10, []wire.Op{wire.ReadOp("x")})
	for tag := uint64(11); !res.Committed; tag++ {
		res = submit(2, tag, []wire.Op{wire.ReadOp("x")})
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
	if got := lc.c.Reg.Get(metrics.CNodeHalted); got != 1 {
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
	sim := net.NewSimCluster(net.NewTopology(1, time.Millisecond), 1)
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
