package net

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// The redial rules: a frame from a peer we cannot reach ends the backoff
// sleep, and what waited through more than one redial is dropped when
// the connection returns. Node 1 is the survivor, node 2 dies and comes
// back on its address.

// answerer replies to probe seq with three probes of its own, inside the
// turn that handles it — the way the protocol answers an invitation.
type answerer struct{ seq uint64 }

func (a answerer) Init(Runtime)         {}
func (a answerer) OnTimer(Runtime, any) {}
func (a answerer) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if p, ok := m.(wire.Probe); ok && p.Seq == a.seq {
		for i := uint64(1); i <= 3; i++ {
			rt.Send(from, wire.Probe{From: rt.ID(), Seq: a.seq + i})
		}
	}
}

// waitFor polls cond; the things waited for have no channel to close.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (pc *peerConn) failedDials() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.failed
}

// expectProbes takes the collector's next messages and fails unless they
// are probes numbered seqs, in that order.
func expectProbes(t *testing.T, col *tcpCollector, seqs ...uint64) {
	t.Helper()
	for _, want := range seqs {
		select {
		case m := <-col.ch:
			if p, ok := m.(wire.Probe); !ok || p.Seq != want {
				t.Fatalf("received %+v, want probe %d", m, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("probe %d never arrived", want)
		}
	}
}

// redialPair runs node 1 (handler h, transport cfg, tracer rec or nil)
// and a first incarnation of node 2, with 1's connection to 2 up; it
// returns node 1, its state for peer 2, and a function that kills 2 and
// breaks the connection (one frame is lost finding that out).
func redialPair(t *testing.T, h Handler, cfg tcpConfig, rec *trace.Recorder) (n1 *TCPNode, pc *peerConn, addrs map[model.ProcID]string, kill func()) {
	t.Helper()
	ports := freePorts(t, 2)
	addrs = map[model.ProcID]string{1: ports[0], 2: ports[1]}
	n1 = newTCPNode(1, addrs, h, cfg)
	n1.SetTracer(rec)
	col := &tcpCollector{ch: make(chan wire.Message, 16)}
	n2 := NewTCPNode(2, addrs, col)
	for _, n := range []*TCPNode{n2, n1} {
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(n1.Stop)
	n1.SendCtx(2, wire.Probe{From: 1, Seq: 1}, model.TraceCtx{})
	expectProbes(t, col, 1)
	n1.connMu.Lock()
	pc = n1.conns[2]
	n1.connMu.Unlock()
	return n1, pc, addrs, func() {
		n2.Stop()
		pc.closeConn()
		n1.SendCtx(2, wire.Probe{From: 1, Seq: 2}, model.TraceCtx{})
	}
}

// startPeer2 boots a new incarnation of node 2 on its old address.
func startPeer2(t *testing.T, addrs map[model.ProcID]string) (*TCPNode, *tcpCollector) {
	t.Helper()
	col := &tcpCollector{ch: make(chan wire.Message, 16)}
	n2 := NewTCPNode(2, addrs, col)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n2.Stop)
	return n2, col
}

// Node 2 is down long enough for node 1's backoff to grow past 400 ms,
// then comes back and sends one frame. Node 1 is connected within
// milliseconds; the outage's backlog is dropped and counted, the answer
// to the frame — queued while the connection was still down — and
// everything after it arrive in order.
func TestTCPInboundFrameWakesRedial(t *testing.T) {
	n1, pc, addrs, kill := redialPair(t, answerer{seq: 100}, tcpConfig{
		reconnectMin: 400 * time.Millisecond,
		reconnectMax: time.Minute,
	}, nil)
	kill()
	// Two failed dials: the next sleep is 800 ms ± 25 %.
	waitFor(t, "the first redial to fail", func() bool { return pc.failedDials() >= 2 })
	for seq := uint64(10); seq < 15; seq++ {
		n1.SendCtx(2, wire.Probe{From: 1, Seq: seq}, model.TraceCtx{})
	}
	dropped, reconnects := n1.Metrics().Get(metrics.CMsgDropped), n1.Metrics().Get(metrics.CPeerReconnect)

	n2, col := startPeer2(t, addrs)
	start := time.Now()
	n2.SendCtx(1, wire.Probe{From: 2, Seq: 100}, model.TraceCtx{})
	// Per-peer FIFO: had the backlog survived, it would come first.
	expectProbes(t, col, 101)
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("answered after %v; the redial slept on", d)
	}
	expectProbes(t, col, 102, 103)
	if got := n1.Metrics().Get(metrics.CPeerReconnect) - reconnects; got != 1 {
		t.Errorf("%d reconnects, want 1", got)
	}
	if got := n1.Metrics().Get(metrics.CMsgDropped) - dropped; got != 5 {
		t.Errorf("%d frames counted dropped, want the 5 queued during the outage", got)
	}
}

// A connection that returns on its first redial delivers what queued
// meanwhile: a blip costs lateness, not frames.
func TestTCPFirstRedialKeepsQueue(t *testing.T) {
	n1, pc, addrs, kill := redialPair(t, tcpEcho{}, tcpConfig{
		reconnectMin: 2 * time.Second, // one sleep outlasts the test: no second redial
		reconnectMax: time.Minute,
	}, nil)
	kill()
	waitFor(t, "the dial that finds the peer gone", func() bool { return pc.failedDials() == 1 })
	for seq := uint64(10); seq < 15; seq++ {
		n1.SendCtx(2, wire.Probe{From: 1, Seq: seq}, model.TraceCtx{})
	}
	dropped := n1.Metrics().Get(metrics.CMsgDropped)
	n2, col := startPeer2(t, addrs)
	n2.SendCtx(1, wire.ProbeAck{From: 2}, model.TraceCtx{}) // ends the sleep
	expectProbes(t, col, 10, 11, 12, 13, 14)
	if got := n1.Metrics().Get(metrics.CMsgDropped) - dropped; got != 0 {
		t.Errorf("%d frames dropped across a first redial", got)
	}
}

// A wake-up rung while the peer was reachable (the dial it was meant for
// had already succeeded) is spent on the next outage's first sleep; the
// one after runs its course.
func TestTCPLeftoverWakeSkipsOneSleep(t *testing.T) {
	const min = 200 * time.Millisecond
	rec := trace.New(1024)
	rec.SetEnabled(true)
	n1, pc, addrs, kill := redialPair(t, tcpEcho{}, tcpConfig{reconnectMin: min, reconnectMax: min}, rec)
	pc.redial <- struct{}{}
	kill()
	waitFor(t, "the redial after the skipped sleep to fail", func() bool { return pc.failedDials() >= 2 })
	slept := time.Now()
	startPeer2(t, addrs) // silent: only the timer ends the sleep
	waitFor(t, "the reconnect", func() bool { return n1.Metrics().Get(metrics.CPeerReconnect) == 1 })
	if d := time.Since(slept); d < min/2 {
		t.Errorf("reconnected %v after the second failed dial; that sleep (%v ± 25%%) was skipped too", d, min)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvReconnect && ev.Aux != 3 {
			t.Errorf("reconnected on dial %d, want 3 (two failures, one sleep)", ev.Aux)
		}
	}
}

// Stop returns, with every goroutine of the node gone (it waits for
// them), when it lands on a redial a wake-up has just set off.
func TestTCPStopDuringWokenRedial(t *testing.T) {
	for i := 0; i < 20; i++ {
		ports := freePorts(t, 2)
		addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
		n := newTCPNode(1, addrs, tcpEcho{}, tcpConfig{reconnectMin: time.Minute, reconnectMax: time.Minute})
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		n.SendCtx(2, wire.Probe{From: 1, Seq: 1}, model.TraceCtx{})
		n.connMu.Lock()
		pc := n.conns[2]
		n.connMu.Unlock()
		waitFor(t, "the first dial to fail", func() bool { return pc.failedDials() >= 1 })
		stopped := make(chan struct{})
		pc.redial <- struct{}{}
		go func() { n.Stop(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("Stop hung on a woken redial")
		}
	}
}
