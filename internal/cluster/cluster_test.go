package cluster

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/wire"
)

func testCore() core.Config {
	return core.Config{Config: node.Config{Delta: 20 * time.Millisecond, LogCap: 64}, UseLogCatchup: true, UsePrevOpt: true}
}

// commit submits ops to p until they commit.
func commit(t *testing.T, c *Cluster, p model.ProcID, tag uint64, ops []wire.Op) wire.ClientResult {
	t.Helper()
	res, err := net.SubmitTCPRetry(c.Addrs()[p], wire.ClientTxn{Tag: tag, Ops: ops}, time.Second, time.Now().Add(20*time.Second))
	if err != nil {
		t.Fatalf("txn %d via %v never committed: %v", tag, p, err)
	}
	return res
}

func TestClusterCommitsOneCopySerializably(t *testing.T) {
	c, err := Start(Config{N: 3, Catalog: model.FullyReplicated(3, "x", "y"), Core: testCore(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	for i := uint64(1); i <= 6; i++ {
		commit(t, c, model.ProcID(i%3+1), i, wire.TransferOps("x", "y", 1))
	}
	res := commit(t, c, 2, 7, []wire.Op{wire.ReadOp("x"), wire.ReadOp("y")})
	if x, y := res.Reads[0].Val, res.Reads[1].Val; x != -6 || y != 6 {
		t.Fatalf("x, y = %d, %d after six transfers, want -6, 6", x, y)
	}
	if r := onecopy.CheckGraph(c.History()); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
	if len(c.Tracer().Events()) == 0 {
		t.Fatal("nothing traced")
	}
}

func TestShardedClusterCommitsCrossShardTransfer(t *testing.T) {
	procs := []model.ProcID{1, 2, 3}
	objs := []model.ObjectID{"o0", "o1", "o2", "o3", "o4", "o5"}
	m, err := shard.NewMap(shard.Config{Shards: 2, Seed: 1, Procs: procs, Objects: objs})
	if err != nil {
		t.Fatal(err)
	}
	a := objs[0]
	var b model.ObjectID
	for _, o := range objs {
		if m.ShardOf(o) != m.ShardOf(a) {
			b = o
			break
		}
	}
	if b == "" {
		t.Fatal("every object in one shard")
	}
	c, err := Start(Config{N: 3, Shards: m, Core: testCore()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, ok := c.Handler(1).(*shard.Router); !ok {
		t.Fatalf("handler is %T, want a shard router", c.Handler(1))
	}
	commit(t, c, 1, 1, wire.TransferOps(a, b, 5))
	res := commit(t, c, 2, 2, []wire.Op{wire.ReadOp(a), wire.ReadOp(b)})
	if res.Reads[0].Val != -5 || res.Reads[1].Val != 5 {
		t.Fatalf("%s, %s = %d, %d after the transfer, want -5, 5", a, b, res.Reads[0].Val, res.Reads[1].Val)
	}
	if r := onecopy.CheckGraph(c.History()); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A processor stopped and booted again on its file journal comes back
// restored — unassigned, forming a fresh partition — rejoins, and serves
// the write it missed.
func TestStopAndBootRestoresFromJournal(t *testing.T) {
	dirs := map[model.ProcID]string{1: t.TempDir(), 2: t.TempDir(), 3: t.TempDir()}
	journals := map[model.ProcID]*durable.FileJournal{}
	defer func() {
		for _, j := range journals {
			j.Close()
		}
	}()
	c, err := Start(Config{N: 3, Catalog: model.FullyReplicated(3, "x"), Core: testCore(),
		Journal: func(p model.ProcID) (durable.Journal, *durable.State, error) {
			st, j, err := durable.Open(dirs[p])
			journals[p] = j
			return j, st, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	state := func(p model.ProcID) (assigned bool, view model.ProcSet) {
		nd := c.Handler(p).(*core.Node)
		c.Node(p).Post(func(net.Runtime) { assigned, view = nd.Assigned(), nd.View() })
		return assigned, view
	}
	if assigned, _ := state(3); !assigned {
		t.Fatal("a fresh journal booted an unassigned node")
	}

	commit(t, c, 1, 1, []wire.Op{wire.WriteOp("x", 10)})
	c.StopNode(3)
	if err := journals[3].Close(); err != nil {
		t.Fatal(err)
	}
	delete(journals, 3)
	if c.Node(3) != nil {
		t.Fatal("a stopped node is still reported running")
	}
	commit(t, c, 1, 2, []wire.Op{wire.WriteOp("x", 20)})

	if err := c.Boot(3); err != nil {
		t.Fatal(err)
	}
	// A restored node starts unassigned; forming its partition takes at
	// least the 2δ invitation window.
	if assigned, _ := state(3); assigned {
		t.Fatal("booted from a journal with writes, the node started fresh")
	}
	all := model.NewProcSet(1, 2, 3)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if assigned, view := state(3); assigned && view.Equal(all) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the restarted node never rejoined the full view")
		}
	}
	if res := commit(t, c, 3, 3, []wire.Op{wire.ReadOp("x")}); res.Reads[0].Val != 20 {
		t.Fatalf("restarted node reads x = %d, want 20", res.Reads[0].Val)
	}
}
