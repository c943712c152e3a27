package net

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

func TestTopologyFullMesh(t *testing.T) {
	topo, err := NewTopology(4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range topo.Procs() {
		for _, b := range topo.Procs() {
			if !topo.Connected(a, b) {
				t.Fatalf("%v-%v should be connected in a full mesh", a, b)
			}
		}
	}
	if len(topo.Procs()) != 4 {
		t.Fatal("wrong size")
	}
}

func TestTopologySelfAlwaysConnected(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.Crash(2)
	if !topo.Connected(2, 2) {
		t.Fatal("self-communication must survive a crash (property S2)")
	}
	topo.SetLink(2, 2, false) // must be ignored
	if !topo.Connected(2, 2) {
		t.Fatal("SetLink must not disconnect a node from itself")
	}
	if topo.Latency(2, 2) != 0 {
		t.Fatal("self latency should be zero")
	}
}

// TestNonTransitiveGraph builds the paper's Figure 1: A–C and B–C up,
// A–B down.
func TestNonTransitiveGraph(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const a, b, c = 1, 2, 3
	topo.SetLink(a, b, false)
	if topo.Connected(a, b) {
		t.Fatal("A-B should be down")
	}
	if !topo.Connected(a, c) || !topo.Connected(b, c) {
		t.Fatal("A-C and B-C should be up")
	}
}

func TestPartitionAndCliques(t *testing.T) {
	topo, err := NewTopology(5, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3, 4})
	if topo.Connected(1, 3) || topo.Connected(2, 4) {
		t.Fatal("cross-partition links should be down")
	}
	if !topo.Connected(1, 2) || !topo.Connected(3, 4) {
		t.Fatal("intra-partition links should be up")
	}
	if topo.Connected(5, 1) || topo.Connected(5, 3) {
		t.Fatal("unlisted processor should be isolated")
	}
}

// TestPartitionShard: a shard's cut drops only the frames that name that
// shard, epoch probes included, and Heal lifts it.
func TestPartitionShard(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.PartitionShard(1, []model.ProcID{1, 2}, []model.ProcID{3})
	for _, m := range []wire.Message{wire.ShardMsg{Shard: 1, Msg: wire.Probe{}}, wire.ShardEpochReq{Shard: 1}, wire.ShardEpochResp{Shard: 1}} {
		if !topo.Outbound(1, 3, m).Drop || topo.Outbound(1, 2, m).Drop {
			t.Fatalf("%T of the cut shard: want dropped across the cut only", m)
		}
	}
	if topo.Outbound(1, 3, wire.ShardMsg{Shard: 2, Msg: wire.Probe{}}).Drop || topo.Outbound(1, 3, wire.Probe{}).Drop {
		t.Fatal("traffic of other shards must cross the cut")
	}
	if !topo.Connected(1, 3) {
		t.Fatal("a shard cut must leave the graph up")
	}
	topo.Heal()
	if topo.Outbound(1, 3, wire.ShardEpochReq{Shard: 1}).Drop {
		t.Fatal("heal must lift the shard cut")
	}
}

func TestPartitionDuplicatePanics(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate group member")
		}
	}()
	topo.Partition([]model.ProcID{1, 2}, []model.ProcID{2, 3})
}

func TestCrashAndRecover(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.Crash(1)
	if topo.Connected(1, 2) || topo.Connected(1, 3) {
		t.Fatal("crashed node should be isolated")
	}
	if !topo.Connected(2, 3) {
		t.Fatal("crash of 1 should not affect 2-3")
	}
	topo.Recover(1)
	if !topo.Connected(1, 2) || !topo.Connected(1, 3) {
		t.Fatal("recover should reconnect")
	}
}

func TestLatencyOverride(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Latency(1, 2) != time.Millisecond {
		t.Fatal("base latency wrong")
	}
	topo.SetLatency(1, 2, 5*time.Millisecond)
	if topo.Latency(1, 2) != 5*time.Millisecond || topo.Latency(2, 1) != 5*time.Millisecond {
		t.Fatal("latency override should be symmetric")
	}
	if topo.Latency(1, 3) != time.Millisecond {
		t.Fatal("other links unaffected")
	}
}

func TestDropProb(t *testing.T) {
	topo, err := NewTopology(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if topo.DropProb() != 0 {
		t.Fatal("default drop prob should be 0")
	}
	topo.SetDropProb(0.5)
	if topo.DropProb() != 0.5 {
		t.Fatal("SetDropProb did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range prob")
		}
	}()
	topo.SetDropProb(1.5)
}

func TestTopologyValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	for _, bad := range []struct {
		n   int
		lat time.Duration
	}{{0, time.Millisecond}, {-1, time.Millisecond}, {65, time.Millisecond}, {2, 0}} {
		if _, err := NewTopology(bad.n, bad.lat); err == nil {
			t.Errorf("NewTopology(%d, %v) accepted", bad.n, bad.lat)
		}
	}
	if _, err := NewTopology(64, time.Millisecond); err != nil {
		t.Errorf("NewTopology(64): %v", err)
	}
	topo, err := NewTopology(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("out of range", func() { topo.Connected(1, 9) })
	mustPanic("bad latency", func() { topo.SetLatency(1, 2, 0) })
}
