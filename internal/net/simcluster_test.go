package net

import (
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// echoNode acks every probe it receives and records what it saw.
type echoNode struct {
	got    []wire.Message
	timers []any
	inited bool
}

func (e *echoNode) Init(rt Runtime) { e.inited = true }

func (e *echoNode) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	e.got = append(e.got, m)
	if p, ok := m.(wire.Probe); ok {
		rt.Send(from, wire.ProbeAck{From: rt.ID(), Seq: p.Seq})
	}
}

func (e *echoNode) OnTimer(rt Runtime, key any) { e.timers = append(e.timers, key) }

// proberNode sends a probe to 2 at t=0 and records the ack.
type proberNode struct {
	echoNode
	acks int
}

func (p *proberNode) Init(rt Runtime) {
	p.echoNode.Init(rt)
	rt.Send(2, wire.Probe{From: rt.ID(), Seq: 1})
}

func (p *proberNode) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.ProbeAck); ok {
		p.acks++
	}
	p.echoNode.OnMessage(rt, from, m)
}

func TestSimClusterRoundTrip(t *testing.T) {
	topo, err := NewTopology(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(topo, 1)
	a := &proberNode{}
	b := &echoNode{}
	c.AddNode(1, a)
	c.AddNode(2, b)
	c.Start()
	c.Run(10 * time.Millisecond)
	if !a.inited || !b.inited {
		t.Fatal("Init not called")
	}
	if a.acks != 1 {
		t.Fatalf("acks = %d", a.acks)
	}
	if c.Reg.Get(metrics.CMsgSent) != 2 || c.Reg.Get(metrics.CMsgDelivered) != 2 {
		t.Fatalf("sent=%d delivered=%d",
			c.Reg.Get(metrics.CMsgSent), c.Reg.Get(metrics.CMsgDelivered))
	}
	// The ack should have taken one round trip: 2×1ms.
	if c.Engine.Now() < 2*time.Millisecond {
		t.Fatalf("clock = %v", c.Engine.Now())
	}
}

func TestSimClusterPartitionDropsMessages(t *testing.T) {
	topo, err := NewTopology(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.Partition([]model.ProcID{1}, []model.ProcID{2})
	c := NewSimCluster(topo, 1)
	a := &proberNode{}
	b := &echoNode{}
	c.AddNode(1, a)
	c.AddNode(2, b)
	c.Start()
	c.Run(10 * time.Millisecond)
	if a.acks != 0 || len(b.got) != 0 {
		t.Fatal("message crossed a partition")
	}
	if c.Reg.Get(metrics.CMsgDropped) != 1 {
		t.Fatalf("dropped = %d", c.Reg.Get(metrics.CMsgDropped))
	}
}

func TestSimClusterInFlightDrop(t *testing.T) {
	topo, err := NewTopology(2, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(topo, 1)
	a := &proberNode{}
	b := &echoNode{}
	c.AddNode(1, a)
	c.AddNode(2, b)
	// Cut the link while the probe is in flight.
	c.At(2*time.Millisecond, "cut", func() { topo.SetLink(1, 2, false) })
	c.Start()
	c.Run(20 * time.Millisecond)
	if len(b.got) != 0 {
		t.Fatal("in-flight message should be lost when the link goes down")
	}
}

// unencodable is a message type the wire codec does not know.
type unencodable struct{ N int }

// senderNode sends one message to 2 at Init.
type senderNode struct {
	echoNode
	msg wire.Message
}

func (s *senderNode) Init(rt Runtime) { rt.Send(2, s.msg) }

// TestSimClusterCodecDefectPanics: a message the codec cannot carry is a
// defect of the program, not a lost message, so the simulator stops and
// names its type instead of counting an omission.
func TestSimClusterCodecDefectPanics(t *testing.T) {
	topo, err := NewTopology(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(topo, 1)
	c.AddNode(1, &senderNode{msg: unencodable{N: 1}})
	c.AddNode(2, &echoNode{})
	c.Start()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "net.unencodable") {
			t.Fatalf("panic %q, want one naming net.unencodable", msg)
		}
		if n := c.Reg.Get(metrics.CMsgDropped); n != 0 {
			t.Fatalf("%d messages counted dropped", n)
		}
	}()
	c.Run(10 * time.Millisecond)
}

type timerNode struct {
	echoNode
	fired []any
	rtRef Runtime
	tid   TimerID
}

func (n *timerNode) Init(rt Runtime) {
	n.rtRef = rt
	rt.SetTimer(5*time.Millisecond, "a")
	n.tid = rt.SetTimer(7*time.Millisecond, "b")
	rt.SetTimer(3*time.Millisecond, "c")
}

func (n *timerNode) OnTimer(rt Runtime, key any) {
	n.fired = append(n.fired, key)
	if key == "c" {
		rt.CancelTimer(n.tid)
	}
}

func TestSimClusterTimers(t *testing.T) {
	topo, err := NewTopology(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(topo, 1)
	n := &timerNode{}
	c.AddNode(1, n)
	c.Start()
	c.Run(time.Second)
	if len(n.fired) != 2 || n.fired[0] != "c" || n.fired[1] != "a" {
		t.Fatalf("fired = %v (timer b should have been cancelled)", n.fired)
	}
}

type resultNode struct{ echoNode }

func (n *resultNode) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if ct, ok := m.(wire.ClientTxn); ok {
		rt.Send(model.NoProc, wire.ClientResult{Tag: ct.Tag, Committed: true})
	}
}

func TestSimClusterClientPath(t *testing.T) {
	topo, err := NewTopology(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSimCluster(topo, 1)
	c.AddNode(1, &resultNode{})
	var results []wire.ClientResult
	c.OnClientResult = func(from model.ProcID, res wire.ClientResult) {
		if from != 1 {
			t.Errorf("result from %v", from)
		}
		results = append(results, res)
	}
	c.Start()
	c.Submit(time.Millisecond, 1, wire.ClientTxn{Tag: 42})
	c.Run(time.Second)
	if len(results) != 1 || results[0].Tag != 42 || !results[0].Committed {
		t.Fatalf("results = %v", results)
	}
}

func TestSimClusterDropProb(t *testing.T) {
	topo, err := NewTopology(2, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.SetDropProb(1.0)
	c := NewSimCluster(topo, 1)
	a := &proberNode{}
	b := &echoNode{}
	c.AddNode(1, a)
	c.AddNode(2, b)
	c.Start()
	c.Run(10 * time.Millisecond)
	if len(b.got) != 0 {
		t.Fatal("drop prob 1.0 should lose everything")
	}
}

func TestSimClusterDistance(t *testing.T) {
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	topo.SetLatency(1, 3, 9*time.Millisecond)
	c := NewSimCluster(topo, 1)
	n := &echoNode{}
	c.AddNode(1, n)
	c.AddNode(2, &echoNode{})
	c.AddNode(3, &echoNode{})
	c.Start()
	c.Run(0)
	rt := c.runtimes[1]
	if rt.Distance(2) != time.Millisecond || rt.Distance(3) != 9*time.Millisecond || rt.Distance(1) != 0 {
		t.Fatal("Distance should reflect topology latency")
	}
	if rt.ID() != 1 || len(rt.Procs()) != 3 {
		t.Fatal("runtime identity wrong")
	}
}

func TestSimClusterDeterminism(t *testing.T) {
	run := func() int64 {
		topo, err := NewTopology(2, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		topo.SetDropProb(0.3)
		c := NewSimCluster(topo, 99)
		a := &proberNode{}
		b := &echoNode{}
		c.AddNode(1, a)
		c.AddNode(2, b)
		c.Start()
		for i := 0; i < 50; i++ {
			i := i
			c.At(time.Duration(i)*time.Millisecond, "probe", func() {
				c.runtimes[1].Send(2, wire.Probe{From: 1, Seq: uint64(i)})
			})
		}
		c.Run(time.Second)
		return c.Reg.Get(metrics.CMsgDelivered)
	}
	if run() != run() {
		t.Fatal("simulation is not deterministic")
	}
}
