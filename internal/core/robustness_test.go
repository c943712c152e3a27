package core

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Robustness tests: lossy links, degenerate cluster sizes, and protocol
// behavior under sustained omission failures that are not partitions.

func TestLossyNetworkStays1SR(t *testing.T) {
	// At high loss rates the protocol legitimately churns: any lost
	// probe or acknowledgement is a detected omission failure and
	// triggers a new partition, starving transactions. The safety
	// property (1SR) must hold regardless, and once loss stops the
	// system must recover and serve again.
	for _, tc := range []struct {
		drop         float64
		expectDuring bool // expect commits while lossy
	}{
		{0.02, true},
		{0.10, false},
	} {
		tc := tc
		t.Run(time.Duration(tc.drop*100).String(), func(t *testing.T) {
			cat := model.FullyReplicated(3, "x", "y")
			f := newFixture(t, cat, 3, 71)
			f.topo.SetDropProb(tc.drop)
			for i := 0; i < 40; i++ {
				obj := model.ObjectID("x")
				if i%2 == 0 {
					obj = "y"
				}
				f.submit(tDeltaBound+time.Duration(i)*40*time.Millisecond,
					model.ProcID(i%3+1), wire.IncrementOps(obj, 1))
			}
			f.run(8 * time.Second)
			commitsDuring := 0
			for _, res := range f.results {
				if res.Committed {
					commitsDuring++
				}
			}
			if tc.expectDuring && commitsDuring == 0 {
				t.Fatalf("nothing committed at %.0f%% loss", tc.drop*100)
			}
			// Stop losing messages: decides retransmit, views re-form,
			// and fresh transactions commit again.
			f.topo.SetDropProb(0)
			f.run(9 * time.Second)
			after := f.submit(9*time.Second, 1, wire.IncrementOps("x", 1))
			f.run(11 * time.Second)
			if !f.results[after].Committed {
				t.Fatalf("no recovery after loss stopped: %s", f.results[after].Reason)
			}
			if r := onecopy.Check(f.hist); !r.OK {
				t.Fatalf("loss rate %.0f%%: not 1SR: %s", tc.drop*100, r.Reason)
			}
			// No staged write survives once the network is clean.
			for _, p := range f.topo.Procs() {
				for _, obj := range []model.ObjectID{"x", "y"} {
					if _, staged := f.nodes[p].Store.StagedBy(obj); staged {
						t.Fatalf("staged write stuck at %v after loss stopped", p)
					}
				}
			}
		})
	}
}

func TestSingleNodeCluster(t *testing.T) {
	cat := model.FullyReplicated(1, "x")
	f := newFixture(t, cat, 1, 72)
	f.run(tDeltaBound)
	if !f.nodes[1].Assigned() || f.nodes[1].View().Len() != 1 {
		t.Fatal("solo node should be assigned to its own partition")
	}
	tag := f.submit(tDeltaBound, 1, wire.IncrementOps("x", 3))
	f.run(tDeltaBound + time.Second)
	res := f.results[tag]
	if !res.Committed {
		t.Fatalf("solo increment aborted: %s", res.Reason)
	}
	if got := f.nodes[1].Store.Get("x").Val; got != 3 {
		t.Fatalf("x = %d", got)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatal(r.Reason)
	}
}

func TestTwoNodeClusterNeedsBoth(t *testing.T) {
	// With two unweighted copies, the majority is 2: a partitioned pair
	// can do nothing on either side — correct and safe.
	cat := model.FullyReplicated(2, "x")
	f := newFixture(t, cat, 2, 73)
	f.run(tDeltaBound)
	okTag := f.submit(tDeltaBound, 1, wire.IncrementOps("x", 1))
	f.run(tDeltaBound + 500*time.Millisecond)
	if !f.results[okTag].Committed {
		t.Fatalf("healthy 2-node increment aborted: %s", f.results[okTag].Reason)
	}
	f.cluster.At(f.cluster.Engine.Now(), "split", func() {
		f.topo.Partition([]model.ProcID{1}, []model.ProcID{2})
	})
	f.run(f.cluster.Engine.Now() + 2*tDeltaBound)
	a := f.submit(f.cluster.Engine.Now(), 1, []wire.Op{wire.ReadOp("x")})
	b := f.submit(f.cluster.Engine.Now(), 2, []wire.Op{wire.ReadOp("x")})
	f.run(f.cluster.Engine.Now() + time.Second)
	if f.results[a].Committed || f.results[b].Committed {
		t.Fatal("a split 2-node cluster must refuse all access (no weighted tie-break configured)")
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatal(r.Reason)
	}
}

func TestPrimaryCopyWeighting(t *testing.T) {
	// Weight the first copy 3 of total 4: it forms a majority alone —
	// the paper's recipe for primary-site behavior within the same
	// protocol.
	cat := model.NewCatalog(model.Placement{
		Object:  "x",
		Holders: model.NewProcSet(1, 2),
		Weights: map[model.ProcID]int{1: 3},
	})
	f := newFixture(t, cat, 2, 74)
	f.run(tDeltaBound)
	f.cluster.At(f.cluster.Engine.Now(), "split", func() {
		f.topo.Partition([]model.ProcID{1}, []model.ProcID{2})
	})
	f.run(f.cluster.Engine.Now() + 2*tDeltaBound)
	a := f.submit(f.cluster.Engine.Now(), 1, wire.IncrementOps("x", 1))
	b := f.submit(f.cluster.Engine.Now(), 2, []wire.Op{wire.ReadOp("x")})
	f.run(f.cluster.Engine.Now() + time.Second)
	if !f.results[a].Committed {
		t.Fatalf("primary-weighted side should work alone: %s", f.results[a].Reason)
	}
	if f.results[b].Committed {
		t.Fatal("secondary alone must be refused")
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatal(r.Reason)
	}
}

// TestDeterministicReplay: identical seeds produce identical histories,
// metrics, and final state — the property every debugging session here
// depends on.
func TestDeterministicReplay(t *testing.T) {
	run := func() (string, int64, model.Value) {
		cat := model.FullyReplicated(4, "x")
		f := newFixture(t, cat, 4, 75)
		f.topo.SetDropProb(0.05)
		for i := 0; i < 30; i++ {
			f.submit(tDeltaBound+time.Duration(i)*30*time.Millisecond,
				model.ProcID(i%4+1), wire.IncrementOps("x", 1))
		}
		f.cluster.At(500*time.Millisecond, "split", func() {
			f.topo.Partition([]model.ProcID{1, 2, 3}, []model.ProcID{4})
		})
		f.cluster.At(time.Second, "heal", func() { f.topo.FullMesh() })
		f.run(5 * time.Second)
		return f.hist.String(), f.cluster.Reg.Get("net.msg.sent"), f.nodes[1].Store.Get("x").Val
	}
	h1, m1, v1 := run()
	h2, m2, v2 := run()
	if h1 != h2 || m1 != m2 || v1 != v2 {
		t.Fatalf("replay diverged: msgs %d vs %d, x %d vs %d", m1, m2, v1, v2)
	}
}

// TestObserverEvents: every join is preceded by that node's depart (the
// local half of S3), and views in join events match the node state.
func TestObserverEvents(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 76)
	f.cluster.At(200*time.Millisecond, "split", func() {
		f.topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
	})
	f.cluster.At(500*time.Millisecond, "heal", func() { f.topo.FullMesh() })
	f.run(time.Second)
	assigned := map[model.ProcID]bool{}
	joins := 0
	for _, ev := range f.events {
		switch e := ev.(type) {
		case JoinEvent:
			if assigned[e.Proc] {
				t.Fatalf("%v joined %v without departing first", e.Proc, e.VP)
			}
			assigned[e.Proc] = true
			if e.View.Len() == 0 || !e.View.Has(e.Proc) {
				t.Fatalf("join view invalid: %+v", e)
			}
			joins++
		case DepartEvent:
			if !assigned[e.Proc] {
				// The very first depart happens from the initial (0,p)
				// partition, which predates our observation; allow it.
				assigned[e.Proc] = true
			}
			assigned[e.Proc] = false
		}
	}
	if joins < 6 {
		t.Fatalf("expected several joins, got %d", joins)
	}
}

// TestAbortReportsReason: client results carry actionable reasons.
func TestAbortReportsReason(t *testing.T) {
	cat := model.FullyReplicated(3, "x")
	f := newFixture(t, cat, 3, 77)
	f.run(tDeltaBound)
	f.cluster.At(f.cluster.Engine.Now(), "isolate", func() {
		f.topo.Partition([]model.ProcID{1}, []model.ProcID{2, 3})
	})
	f.run(f.cluster.Engine.Now() + 2*tDeltaBound)
	tag := f.submit(f.cluster.Engine.Now(), 1, []wire.Op{wire.ReadOp("x")})
	f.run(f.cluster.Engine.Now() + time.Second)
	res := f.results[tag]
	if res.Committed {
		t.Fatal("isolated node committed")
	}
	if res.Reason == "" {
		t.Fatal("abort without a reason string")
	}
}

// A message whose sender is no processor id in 1..model.MaxProc — a
// client's NoProc, or a corrupt frame's — takes no part in view
// management: it neither panics the node nor enters its sets.
func TestNonProcessorSenderIsIgnored(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 1)
	f.run(tDeltaBound * 3)
	f.requireCommonView(1, 2, 3)
	n, rt := f.nodes[1], f.cluster.RuntimeFor(1)
	n.probeOpen = true
	for _, from := range []model.ProcID{model.NoProc, -1, model.MaxProc + 1} {
		for _, m := range []wire.Message{
			wire.ProbeAck{From: from, Seq: n.probeSeq},
			wire.Probe{From: from, VP: n.CurID(), Seq: 1},
			wire.NewVP{ID: model.VPID{N: 1 << 20, P: 2}},
			wire.RecoverReadResp{Obj: "x", Busy: true},
		} {
			n.OnMessage(rt, from, m)
		}
	}
	if n.probeAcks.Has(model.NoProc) || !n.Assigned() || n.View() != model.NewProcSet(1, 2, 3) {
		t.Fatalf("acks %v, assigned %v, view %v after messages from non-processors", n.probeAcks, n.Assigned(), n.View())
	}
}
