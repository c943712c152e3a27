package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// stalledJournal models a committing journal whose committer has not
// flushed yet: records append, barriers stay pending. Killing the node
// then loses exactly the appended-but-unflushed tail.
type stalledJournal struct{ *durable.FileJournal }

func (stalledJournal) Barrier(bool, func(error)) (bool, error) { return false, nil }

// killable is a node that can be killed and booted again inside one
// simulated cluster; while down it swallows messages and timers.
type killable struct{ n *Node }

func (k *killable) Init(rt net.Runtime) { k.n.Init(rt) }
func (k *killable) OnMessage(rt net.Runtime, from model.ProcID, m wire.Message) {
	if k.n != nil {
		k.n.OnMessage(rt, from, m)
	}
}
func (k *killable) OnTimer(rt net.Runtime, key any) {
	if k.n != nil {
		k.n.OnTimer(rt, key)
	}
}

// A processor killed between appending a raised max-id and the flush
// that makes it durable restarts below that identifier. That is harmless
// exactly as long as the identifier never left the processor: the
// identifiers a processor announces — invitations it sends, invitations
// it accepts — must keep strictly increasing across the kill, or S3's
// total order on partitions is forged ("joined vp(2,P) after vp(3,P)").
func TestMaxIDNeverLeavesBeforeItIsDurable(t *testing.T) {
	const victim = model.ProcID(3)
	cat := model.FullyReplicated(3, "x")
	topo, err := net.NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cluster := net.NewSimCluster(topo, 91)
	cluster.Rec = trace.New(trace.DefaultCap)
	cluster.Rec.SetEnabled(true)
	hist := onecopy.NewHistory()

	dirs := map[model.ProcID]string{}
	journals := map[model.ProcID]*durable.FileJournal{}
	nodes := map[model.ProcID]*killable{}
	boot := func(p model.ProcID) {
		st, j, err := durable.Open(dirs[p])
		if err != nil {
			t.Fatalf("open journal of node %v: %v", p, err)
		}
		journals[p] = j
		nodes[p].n = New(p, fixtureConfig(), cat, hist, j, st)
	}
	for _, p := range topo.Procs() {
		dirs[p] = t.TempDir()
		nodes[p] = &killable{}
		boot(p)
		cluster.AddNode(p, nodes[p])
	}
	t.Cleanup(func() {
		for _, j := range journals {
			j.Close() //nolint:errcheck // the victim's first journal was hard-crashed
		}
	})
	cluster.Start()
	cluster.Run(2 * tDeltaBound)

	// The victim's committer stalls; then it starts a new partition: the
	// raised max-id is appended, the flush never comes, and the node dies.
	const T = 2*tDeltaBound + time.Millisecond
	var lost model.VPID
	cluster.At(T, "stall and create", func() {
		n := nodes[victim].n
		stalled := stalledJournal{journals[victim]}
		n.Base.Journal = stalled
		n.CreateNewVP(cluster.RuntimeFor(victim), causeNoResponse)
		lost = n.maxID
	})
	cluster.At(T+time.Millisecond, "kill", func() {
		topo.Crash(victim)
		nodes[victim].n = nil
		journals[victim].HardCrash()
	})
	cluster.At(T+10*time.Millisecond, "restart", func() {
		topo.Recover(victim)
		boot(victim)
		nodes[victim].Init(cluster.RuntimeFor(victim))
	})
	cluster.Run(T + 11*time.Millisecond)
	if got := nodes[victim].n.maxID; !got.Less(model.VPID{N: lost.N + 1, P: victim}) {
		t.Fatalf("restart recovered max-id %v: the raised id %v was durable after all, the kill missed the window", got, lost)
	}
	cluster.Run(T + 4*tDeltaBound)

	var last model.VPID
	announced := 0
	for _, e := range cluster.Rec.Events() {
		if e.Proc != victim || (e.Kind != trace.EvVPInvite && e.Kind != trace.EvVPAccept) {
			continue
		}
		if announced > 0 && !last.Less(e.VP) {
			t.Fatalf("node %v announced %v after %v: an identifier that left the processor was reused or undercut", victim, e.VP, last)
		}
		last = e.VP
		announced++
	}
	if announced < 2 {
		t.Fatalf("node %v announced %d identifiers; the scenario did not run", victim, announced)
	}
	var view model.ProcSet
	for _, p := range topo.Procs() {
		n := nodes[p].n
		if !n.Assigned() {
			t.Fatalf("node %v unassigned after the restart settled", p)
		}
		if view == 0 {
			view = n.View()
		} else if view != n.View() {
			t.Fatalf("views differ after the restart: %v vs %v", view, n.View())
		}
	}
	if view.Len() != 3 {
		t.Fatalf("restarted node did not rejoin: view %v", view)
	}
}
