package rowa

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

func newCluster(t *testing.T, n int, seed int64) (*net.Topology, *net.SimCluster, *onecopy.History, map[uint64]wire.ClientResult) {
	t.Helper()
	topo, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cluster := net.NewSimCluster(topo, seed)
	hist := onecopy.NewHistory()
	cat := model.FullyReplicated(n, "x")
	cfg := node.Config{Delta: 2 * time.Millisecond}
	for _, p := range topo.Procs() {
		cluster.AddNode(p, New(p, cfg, cat, hist))
	}
	results := make(map[uint64]wire.ClientResult)
	cluster.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		results[res.Tag] = res
	}
	cluster.Start()
	return topo, cluster, hist, results
}

func TestCheapestReads(t *testing.T) {
	_, cluster, hist, results := newCluster(t, 5, 1)
	cluster.Submit(0, 3, wire.ClientTxn{Tag: 1, Ops: []wire.Op{wire.ReadOp("x")}})
	cluster.Run(time.Second)
	if !results[1].Committed {
		t.Fatal("read aborted")
	}
	if got := cluster.Reg.Get(metrics.CPhysRead); got != 1 {
		t.Fatalf("read cost %d, want 1", got)
	}
	if r := onecopy.Check(hist); !r.OK {
		t.Fatal(r.Reason)
	}
}

func TestWritesNeedEveryCopy(t *testing.T) {
	topo, cluster, hist, results := newCluster(t, 3, 2)
	cluster.Submit(0, 1, wire.ClientTxn{Tag: 1, Ops: []wire.Op{wire.WriteOp("x", 5)}})
	cluster.Run(time.Second)
	if !results[1].Committed {
		t.Fatal("healthy write aborted")
	}
	if got := cluster.Reg.Get(metrics.CPhysWrite); got != 3 {
		t.Fatalf("write reached %d copies, want 3", got)
	}
	// One crash blocks all writes but not reads.
	topo.Crash(3)
	cluster.Submit(time.Second, 1, wire.ClientTxn{Tag: 2, Ops: []wire.Op{wire.WriteOp("x", 6)}})
	cluster.Submit(time.Second, 2, wire.ClientTxn{Tag: 3, Ops: []wire.Op{wire.ReadOp("x")}})
	cluster.Run(3 * time.Second)
	if results[2].Committed {
		t.Fatal("write committed with a crashed copy")
	}
	if !results[3].Committed || results[3].Reads[0].Val != 5 {
		t.Fatalf("read during crash = %+v", results[3])
	}
	if r := onecopy.Check(hist); !r.OK {
		t.Fatal(r.Reason)
	}
}

// Write-all keeps every copy the same, so a write of something the
// transaction has read needs no lock round of its own.
func TestIncrementSendsNoLockRequests(t *testing.T) {
	_, cluster, hist, results := newCluster(t, 3, 4)
	cluster.Submit(0, 1, wire.ClientTxn{Tag: 1, Ops: wire.IncrementOps("x", 5)})
	cluster.Run(time.Second)
	if !results[1].Committed {
		t.Fatal("increment aborted")
	}
	if got := cluster.Reg.Get(metrics.CMsgSent + ".lockreq"); got != 0 {
		t.Fatalf("lock requests sent = %d, want 0", got)
	}
	if r := onecopy.Check(hist); !r.OK {
		t.Fatal(r.Reason)
	}
}

func TestUnknownObject(t *testing.T) {
	_, cluster, _, results := newCluster(t, 2, 3)
	cluster.Submit(0, 1, wire.ClientTxn{Tag: 1, Ops: []wire.Op{wire.ReadOp("nope")}})
	cluster.Run(time.Second)
	if results[1].Committed {
		t.Fatal("unknown object read committed")
	}
}
