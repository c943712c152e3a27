package net

import (
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TestTCPStopAbortsBackoff is the regression test for the
// shutdown/reconnect race: a Stop issued while a peer loop sleeps in a
// long redial backoff must return promptly instead of waiting the sleep
// out.
func TestTCPStopAbortsBackoff(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	// Huge minimum backoff: after the first failed dial to the
	// never-started peer 2, the loop sleeps ~30s.
	n := newTCPNode(1, addrs, tcpEcho{}, tcpConfig{
		reconnectMin: 30 * time.Second,
		reconnectMax: 60 * time.Second,
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	n.Send(2, wire.Probe{From: 1, Seq: 1}) // spawns the peer loop
	time.Sleep(200 * time.Millisecond)     // let the dial fail and the sleep start

	start := time.Now()
	n.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop took %v; the backoff sleep was not aborted", d)
	}
}

// chaosPinger probes node 2 forever and reports every ack; unlike
// tcpPinger it survives peer restarts (it never stops probing) and its
// ack channel is never reassigned, so tests can reuse it across a crash.
type chaosPinger struct{ acks chan struct{} }

func (p *chaosPinger) Init(rt Runtime) { rt.SetTimer(10*time.Millisecond, "probe") }
func (p *chaosPinger) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.ProbeAck); ok {
		select {
		case p.acks <- struct{}{}:
		default:
		}
	}
}
func (p *chaosPinger) OnTimer(rt Runtime, key any) {
	rt.Send(2, wire.Probe{From: rt.ID(), Seq: 1})
	rt.SetTimer(10*time.Millisecond, "probe")
}

// TestTCPReconnectAfterPeerRestart: the persistent reconnect loop must
// re-establish a connection to a peer that died and came back on the
// same address, and account the outage in metrics and trace.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	p := &chaosPinger{acks: make(chan struct{}, 1)}
	n1 := newTCPNode(1, addrs, p, tcpConfig{
		reconnectMin: 20 * time.Millisecond,
		reconnectMax: 200 * time.Millisecond,
	})
	rec := trace.New(4096)
	rec.SetEnabled(true)
	n1.SetTracer(rec)
	n2 := NewTCPNode(2, addrs, tcpEcho{})
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()

	select {
	case <-p.acks:
	case <-time.After(10 * time.Second):
		t.Fatal("no ack before the crash")
	}

	// Crash peer 2, drain in-flight acks, and bring it back on the same
	// address.
	n2.Stop()
	for quiet := false; !quiet; {
		select {
		case <-p.acks:
		case <-time.After(300 * time.Millisecond):
			quiet = true
		}
	}
	n2b := NewTCPNode(2, addrs, tcpEcho{})
	if err := n2b.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2b.Stop()

	// The pinger keeps probing; once the loop redials, an ack arrives.
	select {
	case <-p.acks:
	case <-time.After(10 * time.Second):
		t.Fatal("no ack after peer restart: reconnect loop dead")
	}

	if got := n1.Metrics().Get(metrics.CPeerUp); got < 2 {
		t.Fatalf("peer-up count = %d, want >= 2 (initial + reconnect)", got)
	}
	if got := n1.Metrics().Get(metrics.CPeerReconnect); got < 1 {
		t.Fatalf("reconnect count = %d, want >= 1", got)
	}
	var sawDown, sawUp, sawRe bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvPeerDown:
			sawDown = true
		case trace.EvPeerUp:
			sawUp = true
		case trace.EvReconnect:
			sawRe = true
		}
	}
	if !sawDown || !sawUp || !sawRe {
		t.Fatalf("trace missing transport events: down=%v up=%v reconnect=%v", sawDown, sawUp, sawRe)
	}
}

// chaosIcpt is a scriptable interceptor for transport tests.
type chaosIcpt struct {
	mu  sync.Mutex
	fn  func(from, to model.ProcID, kind string) Verdict
	log []string
}

func (c *chaosIcpt) Outbound(from, to model.ProcID, m wire.Message) Verdict {
	kind := wire.Kind(m)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log = append(c.log, kind)
	if c.fn == nil {
		return Verdict{}
	}
	return c.fn(from, to, kind)
}

func (c *chaosIcpt) set(fn func(from, to model.ProcID, kind string) Verdict) {
	c.mu.Lock()
	c.fn = fn
	c.mu.Unlock()
}

// TestTCPInterceptorVerdicts drives drop, delay and duplicate through a
// live TCP pair.
func TestTCPInterceptorVerdicts(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	col := &tcpCollector{ch: make(chan wire.Message, 64)}
	ic := &chaosIcpt{}
	n1 := NewTCPNode(1, addrs, tcpEcho{})
	n1.SetInterceptor(ic)
	n2 := NewTCPNode(2, addrs, col)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()

	recv := func(timeout time.Duration) int {
		got := 0
		for {
			select {
			case <-col.ch:
				got++
			case <-time.After(timeout):
				return got
			}
		}
	}

	// Pass-through: message arrives, interceptor consulted.
	n1.Send(2, wire.Probe{From: 1, Seq: 1})
	if got := recv(2 * time.Second); got != 1 {
		t.Fatalf("pass-through: %d messages, want 1", got)
	}

	// Drop: nothing arrives, drop accounted.
	before := n1.Metrics().Get(metrics.CMsgDropped)
	ic.set(func(_, _ model.ProcID, _ string) Verdict { return Verdict{Drop: true} })
	n1.Send(2, wire.Probe{From: 1, Seq: 2})
	if got := recv(300 * time.Millisecond); got != 0 {
		t.Fatalf("drop verdict: %d messages leaked through", got)
	}
	if after := n1.Metrics().Get(metrics.CMsgDropped); after != before+1 {
		t.Fatalf("dropped counter %d -> %d, want +1", before, after)
	}

	// Duplicate: exactly two copies arrive.
	ic.set(func(_, _ model.ProcID, _ string) Verdict { return Verdict{Duplicate: true} })
	n1.Send(2, wire.Probe{From: 1, Seq: 3})
	if got := recv(2 * time.Second); got != 2 {
		t.Fatalf("duplicate verdict: %d copies, want 2", got)
	}

	// Delay: the message arrives, but not before the delay elapses.
	ic.set(func(_, _ model.ProcID, _ string) Verdict { return Verdict{Delay: 300 * time.Millisecond} })
	start := time.Now()
	n1.Send(2, wire.Probe{From: 1, Seq: 4})
	select {
	case <-col.ch:
		if d := time.Since(start); d < 250*time.Millisecond {
			t.Fatalf("delayed message arrived after %v, want >= ~300ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed message never arrived")
	}
}

// TestTCPQueueOverflowAccounted: a bounded queue to an unreachable peer
// overflows into accounted drops instead of blocking the sender.
func TestTCPQueueOverflowAccounted(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	n := newTCPNode(1, addrs, tcpEcho{}, tcpConfig{
		queueLen:     2,
		reconnectMin: time.Second, // keep the loop in backoff during the test
		reconnectMax: 5 * time.Second,
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			n.Send(2, wire.Probe{From: 1, Seq: uint64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full queue")
	}
	if got := n.Metrics().Get(metrics.CMsgDropped); got < 8 {
		t.Fatalf("dropped = %d, want >= 8 (queue of 2, 10 sends)", got)
	}
}

// TestSubmitTCPRetryOutlastsOutage: a client submit that starts before
// the server exists must succeed once the server comes up, within the
// deadline.
func TestSubmitTCPRetryOutlastsOutage(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	go func() {
		time.Sleep(500 * time.Millisecond)
		n := NewTCPNode(1, addrs, tcpEcho{})
		if err := n.Run(); err != nil {
			return
		}
		// Leak the node until test exit; the OS reclaims the port.
	}()
	res, err := SubmitTCPRetry(ports[0], wire.ClientTxn{Tag: 5, Ops: wire.IncrementOps("x", 1)},
		300*time.Millisecond, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != 5 || !res.Committed {
		t.Fatalf("res = %+v", res)
	}
}

// TestSubmitTCPRetryDeadline: with no server at all the retry loop must
// give up once the deadline passes, returning an error.
func TestSubmitTCPRetryDeadline(t *testing.T) {
	ports := freePorts(t, 1)
	start := time.Now()
	_, err := SubmitTCPRetry(ports[0], wire.ClientTxn{Tag: 6, Ops: wire.IncrementOps("x", 1)},
		100*time.Millisecond, time.Now().Add(700*time.Millisecond))
	if err == nil {
		t.Fatal("expected an error with no server")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("retry loop ran %v past a 700ms deadline", d)
	}
}
