package net

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// RealCluster runs the same Handlers in real time: one goroutine per node
// draining a mailbox, wall-clock timers, and in-memory message delivery
// that still honors the Topology (so partitions can be injected live).
// It exists to demonstrate that the protocol code is engine-agnostic and
// to back the example programs; benchmarks use SimCluster.
type RealCluster struct {
	Topo *Topology
	Reg  *metrics.Registry
	// Rec is the structured event recorder shared by all nodes. Nil (the
	// default) disables tracing; Recorder methods are concurrency-safe,
	// so node goroutines record into it directly.
	Rec *trace.Recorder

	// OnClientResult receives transaction results (called from node
	// goroutines; must be safe for concurrent use).
	OnClientResult func(from model.ProcID, res wire.ClientResult)

	// Icpt, when non-nil, is consulted on every remote send (after the
	// Topology's own connectivity and drop checks), so a nemesis can
	// inject drops, delays and duplicates into a live in-memory cluster.
	// Set before Start.
	Icpt Interceptor

	start   time.Time
	nodes   map[model.ProcID]*realNode
	stopped atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup
}

type rtEvent struct {
	from  model.ProcID
	msg   wire.Message
	ctx   model.TraceCtx
	timer any // non-nil: timer event with this key
	tid   TimerID
	post  func(rt Runtime) // non-nil: posted continuation (Poster)
}

type realNode struct {
	c    *RealCluster
	id   model.ProcID
	h    Handler
	mbox chan rtEvent
	rng  *rand.Rand
	rmu  sync.Mutex // guards rng: Send may race with timer goroutines

	// cur is the trace context of the event the loop goroutine is
	// handling. Only the loop goroutine reads or writes it, and Send is
	// only called from handler code on that goroutine.
	cur model.TraceCtx

	tmu    sync.Mutex
	nextT  TimerID
	timers map[TimerID]*time.Timer
}

// NewRealCluster creates a real-time cluster over the topology.
func NewRealCluster(topo *Topology) *RealCluster {
	return &RealCluster{
		Topo:  topo,
		Reg:   metrics.NewRegistry(),
		nodes: make(map[model.ProcID]*realNode),
		start: time.Now(),
		done:  make(chan struct{}),
	}
}

// AddNode registers a handler as processor p.
func (c *RealCluster) AddNode(p model.ProcID, h Handler) {
	if _, dup := c.nodes[p]; dup {
		panic(fmt.Sprintf("net: duplicate node %v", p))
	}
	c.nodes[p] = &realNode{
		c:      c,
		id:     p,
		h:      h,
		mbox:   make(chan rtEvent, 1024),
		rng:    rand.New(rand.NewSource(int64(p)*104729 + time.Now().UnixNano())),
		timers: make(map[TimerID]*time.Timer),
	}
}

// Start initializes every node and launches its event loop.
func (c *RealCluster) Start() {
	for _, n := range c.nodes {
		n.h.Init(n)
	}
	for _, n := range c.nodes {
		c.wg.Add(1)
		go n.loop()
	}
}

// Stop terminates all node loops and waits for them to exit. The
// mailboxes are never closed: late sends from timer and delayed-delivery
// goroutines select against the done channel instead, so a racing
// enqueue is a silent drop rather than a send on a closed channel.
func (c *RealCluster) Stop() {
	if c.stopped.Swap(true) {
		return
	}
	close(c.done)
	c.wg.Wait()
}

// Submit delivers a client transaction to processor p.
func (c *RealCluster) Submit(p model.ProcID, t wire.ClientTxn) {
	n, ok := c.nodes[p]
	if !ok {
		panic(fmt.Sprintf("net: submit to unknown node %v", p))
	}
	n.enqueue(rtEvent{from: model.NoProc, msg: t})
}

func (n *realNode) enqueue(ev rtEvent) {
	if n.c.stopped.Load() {
		return
	}
	select {
	case n.mbox <- ev:
	case <-n.c.done:
	}
}

func (n *realNode) loop() {
	defer n.c.wg.Done()
	for {
		var ev rtEvent
		select {
		case <-n.c.done:
			return
		case ev = <-n.mbox:
		}
		if ev.post != nil {
			n.cur = model.TraceCtx{}
			ev.post(n)
			continue
		}
		if ev.timer != nil {
			n.tmu.Lock()
			_, live := n.timers[ev.tid]
			delete(n.timers, ev.tid)
			n.tmu.Unlock()
			if live {
				n.cur = model.TraceCtx{}
				n.h.OnTimer(n, ev.timer)
			}
			continue
		}
		n.cur = ev.ctx
		n.h.OnMessage(n, ev.from, ev.msg)
	}
}

var (
	_ Runtime = (*realNode)(nil)
	_ Poster  = (*realNode)(nil)
)

// Post implements Poster.
func (n *realNode) Post(fn func(rt Runtime)) { n.enqueue(rtEvent{post: fn}) }

func (n *realNode) ID() model.ProcID      { return n.id }
func (n *realNode) Procs() []model.ProcID { return n.c.Topo.Procs() }
func (n *realNode) Now() time.Duration    { return time.Since(n.c.start) }

func (n *realNode) Rand() *rand.Rand { return n.rng }

func (n *realNode) Metrics() *metrics.Registry { return n.c.Reg }

func (n *realNode) Tracer() *trace.Recorder { return n.c.Rec }

func (n *realNode) Send(to model.ProcID, m wire.Message) {
	n.SendCtx(to, m, n.cur)
}

func (n *realNode) TraceCtx() model.TraceCtx { return n.cur }

func (n *realNode) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	c := n.c
	if to == n.id {
		// Local procedure call: reliable, free of network cost.
		n.enqueue(rtEvent{from: n.id, msg: m, ctx: ctx})
		return
	}
	kind := wire.Kind(m)
	c.Reg.Inc(metrics.CMsgSent, 1)
	c.Reg.Inc(sentByKind.Name(kind), 1)
	c.Rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvMsgSend, Peer: to, Msg: kind})
	if to == model.NoProc {
		if c.OnClientResult != nil {
			if res, ok := m.(wire.ClientResult); ok {
				c.OnClientResult(n.id, res)
			}
		}
		return
	}
	dst, ok := c.nodes[to]
	if !ok || !c.Topo.Connected(n.id, to) {
		n.drop(to, kind)
		return
	}
	if p := c.Topo.DropProb(); p > 0 {
		n.rmu.Lock()
		drop := n.rng.Float64() < p
		n.rmu.Unlock()
		if drop {
			n.drop(to, kind)
			return
		}
	}
	lat := c.Topo.Latency(n.id, to)
	if ic := c.Icpt; ic != nil {
		v := intercept(ic, n.id, to, m, kind)
		if v.Drop {
			n.drop(to, kind)
			return
		}
		lat += v.Delay
		if v.Duplicate {
			dup := m
			dupLat := lat
			time.AfterFunc(dupLat+time.Millisecond, func() { n.deliverTo(dst, to, dup, kind, ctx) })
		}
	}
	if lat <= 0 {
		n.deliverTo(dst, to, m, kind, ctx)
	} else {
		time.AfterFunc(lat, func() { n.deliverTo(dst, to, m, kind, ctx) })
	}
}

// deliverTo completes one remote delivery, re-checking connectivity at
// delivery time so a partition formed in flight still loses the message.
func (n *realNode) deliverTo(dst *realNode, to model.ProcID, m wire.Message, kind string, ctx model.TraceCtx) {
	c := n.c
	if !c.Topo.Connected(n.id, to) {
		n.drop(to, kind)
		return
	}
	c.Reg.Inc(metrics.CMsgDelivered, 1)
	c.Reg.Inc(deliveredByKind.Name(kind), 1)
	c.Rec.Record(trace.Event{At: n.Now(), Proc: to, Kind: trace.EvMsgRecv, Peer: n.id, Msg: kind})
	dst.enqueue(rtEvent{from: n.id, msg: m, ctx: ctx})
}

func (n *realNode) SetTimer(d time.Duration, key any) TimerID {
	n.tmu.Lock()
	n.nextT++
	id := n.nextT
	n.timers[id] = time.AfterFunc(d, func() {
		n.enqueue(rtEvent{timer: key, tid: id})
	})
	n.tmu.Unlock()
	return id
}

func (n *realNode) CancelTimer(id TimerID) {
	n.tmu.Lock()
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
	n.tmu.Unlock()
}

func (n *realNode) Distance(to model.ProcID) time.Duration {
	return n.c.Topo.Latency(n.id, to)
}

// drop accounts one lost message in the metrics and the trace.
func (n *realNode) drop(to model.ProcID, kind string) {
	n.c.Reg.Inc(metrics.CMsgDropped, 1)
	n.c.Rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvMsgDrop, Peer: to, Msg: kind})
}

func (n *realNode) Logf(format string, args ...any) {
	if !n.c.Rec.Enabled() {
		return
	}
	n.c.Rec.Logf(n.Now(), n.id, format, args...)
}
