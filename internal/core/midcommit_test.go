package core

import (
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

// decideBlocker is a net.Interceptor that, while armed, loses every
// Decide message addressed to one victim — freezing that participant in
// the 2PC window after its write is journaled (StagedWrite) but before
// the decision arrives (no DecideRec on the participant side).
type decideBlocker struct {
	mu     sync.Mutex
	armed  bool
	victim model.ProcID
}

func (b *decideBlocker) Outbound(from, to model.ProcID, m wire.Message) vnet.Verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, decide := m.(wire.Decide); b.armed && to == b.victim && decide {
		return vnet.Verdict{Drop: true}
	}
	return vnet.Verdict{}
}

func (b *decideBlocker) arm(on bool) {
	b.mu.Lock()
	b.armed = on
	b.mu.Unlock()
}

// TestCrashMidCommitRestartsFromJournal kills a participant exactly
// mid-commit — its vote cast and its write staged in the journal, the
// coordinator's Decide withheld — then restarts it from the journal and
// requires convergence: the restarted node rejoins a view and serves the
// committed value (via the retransmitted Decide and/or rule R5 refresh).
func TestCrashMidCommitRestartsFromJournal(t *testing.T) {
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
	blocker := &decideBlocker{victim: 3}

	boot := func(id model.ProcID) *vnet.TCPNode {
		state, journal, err := durable.Open(dirs[id])
		if err != nil {
			t.Fatal(err)
		}
		nd := New(id, cfg, cat, nil, journal, state)
		tn := vnet.NewTCPNode(id, addrs, nd)
		tn.SetInterceptor(blocker)
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
		res, err := vnet.SubmitTCPRetry(addrs[to], wire.ClientTxn{Tag: tag, Ops: ops},
			5*time.Second, time.Now().Add(20*time.Second))
		if err != nil {
			t.Fatalf("txn %d via %v never committed: res=%+v err=%v", tag, to, res, err)
		}
		return res
	}

	// Let views form, then freeze the 2PC window: node 3 will stage and
	// vote, but never learn the outcome.
	submit(1, 1, []wire.Op{wire.WriteOp("x", 1)})
	// The client has its answer at the commit point, ahead of the remote
	// Decide; a read through node 3 commits once that Decide has landed
	// there, so the blocker freezes the next write's window, not this one's.
	submit(3, 11, []wire.Op{wire.ReadOp("x")})
	blocker.arm(true)

	// This write commits — the coordinator has all votes — while node 3
	// sits prepared, Decide lost in flight.
	submit(1, 2, []wire.Op{wire.WriteOp("x", 10)})

	// Crash node 3 in that window.
	nodes[3].Stop()
	delete(nodes, 3)
	blocker.arm(false)

	// The journal must capture mid-commit truth: the write staged, the
	// value not yet applied.
	state, journal, err := durable.Open(dirs[3])
	if err != nil {
		t.Fatal(err)
	}
	staged := 0
	for _, objs := range state.Staged {
		for obj, sw := range objs {
			if obj == "x" && sw.Val == 10 {
				staged++
			}
		}
	}
	if staged != 1 {
		t.Fatalf("journal staged writes for x=10: %d, want 1\nstate: %+v", staged, state.Staged)
	}
	if c, ok := state.Copies["x"]; ok && c.Val == 10 {
		t.Fatalf("journal already applied x=10 before the Decide: %+v", c)
	}
	journal.Close()

	// Restart from the journal. The coordinator is still retransmitting
	// the Decide; together with R5 refresh on rejoin, node 3 must
	// converge on the committed value.
	nodes[3] = boot(3)
	res := submit(3, 3, []wire.Op{wire.ReadOp("x")})
	if res.Reads[0].Val != 10 {
		t.Fatalf("restarted node served %d, want 10", res.Reads[0].Val)
	}
}
