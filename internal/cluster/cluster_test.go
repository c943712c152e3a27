package cluster

import (
	"maps"
	"strings"
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

// twoShards maps six objects on processors 1–3 into two shards, every
// processor holding a copy of both, and names an object in each.
func twoShards(t *testing.T) (m *shard.Map, a, b model.ObjectID) {
	t.Helper()
	objs := []model.ObjectID{"o0", "o1", "o2", "o3", "o4", "o5"}
	m, err := shard.NewMap(shard.Config{Shards: 2, Seed: 1, Procs: []model.ProcID{1, 2, 3}, Objects: objs})
	if err != nil {
		t.Fatal(err)
	}
	a = objs[0]
	for _, o := range objs {
		if m.ShardOf(o) != m.ShardOf(a) {
			return m, a, o
		}
	}
	t.Fatal("every object in one shard")
	return nil, "", ""
}

func TestShardedClusterCommitsCrossShardTransfer(t *testing.T) {
	m, a, b := twoShards(t)
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

// coreNodes returns the virtual-partition nodes behind a processor's
// handler: the one node, or one per shard a router hosts.
func coreNodes(h net.Handler) []*core.Node {
	r, ok := h.(*shard.Router)
	if !ok {
		return []*core.Node{h.(*core.Node)}
	}
	var ns []*core.Node
	for _, s := range r.Hosted() {
		ns = append(ns, r.Node(s))
	}
	return ns
}

// A processor stopped and booted again on its file journal comes back
// restored — unassigned, forming a fresh partition (one per hosted shard
// when sharded) — rejoins, and serves the writes it missed.
func TestStopAndBootRestoresFromJournal(t *testing.T) {
	m, a, b := twoShards(t)
	for _, tc := range []struct {
		name          string
		cfg           Config
		first, second []wire.Op
		objs          []model.ObjectID
		want          []model.Value
	}{
		{"unsharded", Config{Catalog: model.FullyReplicated(3, "x")},
			[]wire.Op{wire.WriteOp("x", 10)}, []wire.Op{wire.WriteOp("x", 20)},
			[]model.ObjectID{"x"}, []model.Value{20}},
		{"two shards", Config{Shards: m},
			wire.TransferOps(a, b, 5), wire.TransferOps(a, b, 2),
			[]model.ObjectID{a, b}, []model.Value{-7, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := map[model.ProcID]string{1: t.TempDir(), 2: t.TempDir(), 3: t.TempDir()}
			journals := map[model.ProcID]*durable.FileJournal{}
			defer func() {
				for _, j := range journals {
					j.Close()
				}
			}()
			cfg := tc.cfg
			cfg.N, cfg.Core = 3, testCore()
			cfg.Journal = func(p model.ProcID) (durable.Journal, *durable.State, error) {
				st, j, err := durable.Open(dirs[p])
				journals[p] = j
				return j, st, err
			}
			c, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			all := model.NewProcSet(1, 2, 3)
			// assigned: every node of p is in a partition; joined: every
			// one is in the full view and refreshes nothing.
			state := func(p model.ProcID) (assigned, joined bool) {
				c.Node(p).Post(func(net.Runtime) {
					assigned, joined = true, true
					for _, nd := range coreNodes(c.Handler(p)) {
						assigned = assigned && nd.Assigned()
						joined = joined && nd.Assigned() && nd.View() == all && !nd.Refreshing()
					}
				})
				return assigned, joined
			}
			if assigned, _ := state(3); !assigned {
				t.Fatal("a fresh journal booted an unassigned node")
			}

			commit(t, c, 1, 1, tc.first)
			c.StopNode(3)
			if err := journals[3].Close(); err != nil {
				t.Fatal(err)
			}
			delete(journals, 3)
			if c.Node(3) != nil {
				t.Fatal("a stopped node is still reported running")
			}
			commit(t, c, 1, 2, tc.second)

			if err := c.Boot(3); err != nil {
				t.Fatal(err)
			}
			// A restored node starts unassigned; forming its partition takes
			// at least the 2δ invitation window.
			if assigned, _ := state(3); assigned {
				t.Fatal("booted from a journal with writes, the node started fresh")
			}
			for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if _, joined := state(3); joined {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the restarted node never rejoined the full view")
				}
			}
			var read []wire.Op
			for _, o := range tc.objs {
				read = append(read, wire.ReadOp(o))
			}
			res := commit(t, c, 3, 3, read)
			for i, o := range tc.objs {
				if got := res.Reads[i].Val; got != tc.want[i] {
					t.Errorf("restarted node reads %s = %d, want %d", o, got, tc.want[i])
				}
			}
		})
	}
}

func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[model.ProcID]string
		err  string
	}{
		{in: "1=localhost:7001, 2=localhost:7002,3=h:3",
			want: map[model.ProcID]string{1: "localhost:7001", 2: "localhost:7002", 3: "h:3"}},
		{in: "", err: "-cluster is required"},
		{in: "zap", err: `bad -cluster entry "zap"`},
		{in: "0=a:1", err: `bad processor id "0"`},
		{in: "1=a:1,65=b:1", err: `bad processor id "65"`},
		{in: "64=a:1", want: map[model.ProcID]string{64: "a:1"}},
		{in: "x=a:1", err: `bad processor id "x"`},
	} {
		got, err := ParseAddrs(tc.in)
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("ParseAddrs(%q) err = %v, want %q", tc.in, err, tc.err)
		case tc.err == "" && (err != nil || !maps.Equal(got, tc.want)):
			t.Errorf("ParseAddrs(%q) = %v, %v, want %v", tc.in, got, err, tc.want)
		}
	}
}
