package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TestTCPNodeRestart kills one processor of a real TCP cluster (its
// in-memory state discarded) and restarts it from its file journal: the
// survivor majority keeps serving, the restarted node rejoins, rule R5
// refreshes the writes it missed, and reads through it are current.
// This is the end-to-end form of what cmd/vpnode -data provides.
func TestTCPNodeRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	ports, err := vnet.LoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1], 3: ports[2]}
	cat := model.FullyReplicated(3, "x")
	cfg := Config{Config: node.Config{Delta: 25 * time.Millisecond, LogCap: 64}}
	dirs := map[model.ProcID]string{1: t.TempDir(), 2: t.TempDir(), 3: t.TempDir()}

	boot := func(id model.ProcID) *vnet.TCPNode {
		state, journal, err := durable.Open(dirs[id])
		if err != nil {
			t.Fatal(err)
		}
		nd := New(id, cfg, cat, nil, journal, state)
		tn := vnet.NewTCPNode(id, addrs, nd)
		if err := tn.Run(); err != nil {
			t.Fatal(err)
		}
		return tn
	}

	nodes := map[model.ProcID]*vnet.TCPNode{}
	for id := model.ProcID(1); id <= 3; id++ {
		nodes[id] = boot(id)
	}
	defer func() {
		for _, tn := range nodes {
			tn.Stop()
		}
	}()

	submit := func(to model.ProcID, tag uint64, ops []wire.Op) wire.ClientResult {
		deadline := time.Now().Add(20 * time.Second)
		for {
			res, err := vnet.SubmitTCP(addrs[to], wire.ClientTxn{Tag: tag, Ops: ops}, 5*time.Second)
			if err == nil && res.Committed {
				return res
			}
			if time.Now().After(deadline) {
				t.Fatalf("txn %d via %v never committed: res=%+v err=%v", tag, to, res, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	submit(1, 1, []wire.Op{wire.WriteOp("x", 10)})

	// Kill node 3 outright.
	nodes[3].Stop()
	delete(nodes, 3)

	// Majority keeps working; node 3 misses this write.
	submit(1, 2, wire.IncrementOps("x", 5))

	// Restart node 3 from its journal.
	nodes[3] = boot(3)

	// A read through the restarted node must see 15 (its own copy,
	// refreshed by R5 after it rejoins).
	res := submit(3, 3, []wire.Op{wire.ReadOp("x")})
	if res.Reads[0].Val != 15 {
		t.Fatalf("restarted node served %d, want 15", res.Reads[0].Val)
	}
}
