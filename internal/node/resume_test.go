package node

import (
	"slices"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// A restarted coordinator retransmits its journaled decisions in
// transaction order, like every other coordinator fan-out, so a seeded
// run replays them the same way every time.
func TestResumedDecisionsGoOutInTxnOrder(t *testing.T) {
	topo, err := net.NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cat := model.FullyReplicated(3, "x")
	cluster := net.NewSimCluster(topo, 42)
	hist := onecopy.NewHistory()
	st := durable.NewState()
	var want []model.TxnID
	for i := 8; i >= 1; i-- {
		id := model.TxnID{Start: int64(100 * i % 7), P: 1, Seq: uint64(i)}
		st.Decides[id] = durable.DecideRec{Commit: i%2 == 0, Pending: []model.ProcID{2, 3}}
		want = append(want, id, id) // one Decide to 2, then one to 3
	}
	slices.SortFunc(want, model.TxnID.Compare)
	var sent []model.TxnID
	var to []model.ProcID
	for _, p := range topo.Procs() {
		base := NewBase(p, Config{Delta: 2 * time.Millisecond}, cat, &rowaStrategy{cat: cat}, hist, nil)
		if p != 1 {
			cluster.AddNode(p, NewSimpleNode(base))
			continue
		}
		base.RestoreDurable(st)
		cluster.AddNode(p, decideSpy{NewSimpleNode(base), func(d wire.Decide, dest model.ProcID) {
			sent = append(sent, d.Txn)
			to = append(to, dest)
		}})
	}
	cluster.Start()
	cluster.Run(0) // the Init events only
	if !slices.Equal(sent, want) {
		t.Fatalf("resumed Decides went out for %v, want %v", sent, want)
	}
	for i, p := range to {
		if p != model.ProcID(2+i%2) {
			t.Fatalf("resumed Decide %d went to %v, want each decision to 2 then 3: %v", i, p, to)
		}
	}
}

// decideSpy runs a node whose Init (all this test runs of it) sends
// through a runtime that shows each Decide to seen first.
type decideSpy struct {
	net.Handler
	seen func(d wire.Decide, to model.ProcID)
}

func (s decideSpy) Init(rt net.Runtime) { s.Handler.Init(decideRuntime{rt, s.seen}) }

type decideRuntime struct {
	net.Runtime
	seen func(d wire.Decide, to model.ProcID)
}

func (r decideRuntime) Send(to model.ProcID, m wire.Message) {
	r.SendCtx(to, m, r.TraceCtx())
}

func (r decideRuntime) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	if d, ok := m.(wire.Decide); ok {
		r.seen(d, to)
	}
	r.Runtime.SendCtx(to, m, ctx)
}
