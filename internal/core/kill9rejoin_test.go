package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TestKill9DeltaRejoin is the acceptance path for log-based R5: a node
// is killed -9 (journal abandoned mid group-commit, bytes torn off the
// segment tail), misses a run of committed writes, and restarts. The
// rejoin must repair the torn tail, catch up by streaming only the
// missed log entries from its peers (counted via vp.catchup.writes),
// and never fall back to a full copy (vp.refresh.reads stays zero).
func TestKill9DeltaRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time TCP test")
	}
	ports, err := vnet.LoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1], 3: ports[2]}
	cat := model.FullyReplicated(3, "x")
	cfg := Config{
		Config:        node.Config{Delta: 25 * time.Millisecond, LogCap: 64},
		UseLogCatchup: true,
	}
	dirs := map[model.ProcID]string{1: t.TempDir(), 2: t.TempDir(), 3: t.TempDir()}

	journals := map[model.ProcID]*durable.FileJournal{}
	boot := func(id model.ProcID) *vnet.TCPNode {
		state, journal, err := durable.Open(dirs[id])
		if err != nil {
			t.Fatal(err)
		}
		journals[id] = journal
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

	// Kill -9 node 3: stop the transport, abandon the journal's pending
	// batch without a sync, and tear bytes off the newest segment.
	nodes[3].Stop()
	journals[3].HardCrash()
	segs, err := filepath.Glob(filepath.Join(dirs[3], "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments of node 3: %v %v", segs, err)
	}
	newest := segs[len(segs)-1] // zero-padded indices sort by name
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, fi.Size()-3); err != nil {
		t.Fatalf("chop tail: %v", err)
	}
	delete(nodes, 3)

	// The majority commits writes node 3 misses.
	const missed = 5
	for i := 0; i < missed; i++ {
		submit(1, uint64(2+i), wire.IncrementOps("x", 1))
	}

	// Restart from the damaged directory: recovery must repair the tail.
	nodes[3] = boot(3)
	if rs := journals[3].Recovery(); !rs.Torn {
		t.Fatalf("recovery stats = %+v, want a repaired torn tail", rs)
	}

	// A read through the restarted node sees the full history.
	res := submit(3, 100, []wire.Op{wire.ReadOp("x")})
	if res.Reads[0].Val != 10+missed {
		t.Fatalf("restarted node served %d, want %d", res.Reads[0].Val, 10+missed)
	}

	// The rejoin streamed a handful of log entries — the missed writes
	// plus at most the torn-off record — and never copied the object
	// wholesale.
	var catchup, fullCopies int64
	for _, tn := range nodes {
		catchup += tn.Metrics().Get(metrics.CCatchupWrites)
		fullCopies += tn.Metrics().Get(metrics.CRefreshReads)
	}
	if catchup < 1 || catchup > 2*(missed+2) {
		t.Fatalf("peers served %d catch-up entries, want a small delta (1..%d)", catchup, 2*(missed+2))
	}
	if fullCopies != 0 {
		t.Fatalf("refresh fell back to %d full-copy reads; the delta path must carry the default", fullCopies)
	}
}
