package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	stdnet "net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// freePorts is LoopbackAddrs for tests.
func freePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs, err := LoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// tcpEcho answers probes and client txns.
type tcpEcho struct{}

func (tcpEcho) Init(rt Runtime) {}
func (tcpEcho) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	switch msg := m.(type) {
	case wire.Probe:
		rt.Send(from, wire.ProbeAck{From: rt.ID(), Seq: msg.Seq})
	case wire.ClientTxn:
		rt.Send(model.NoProc, wire.ClientResult{Tag: msg.Tag, Committed: true,
			Reads: []wire.ObjVal{{Obj: "x", Val: 1}}})
	}
}
func (tcpEcho) OnTimer(rt Runtime, key any) {}

// tcpPinger probes node 2 until an ack arrives.
type tcpPinger struct{ acked chan struct{} }

func (p *tcpPinger) Init(rt Runtime) { rt.SetTimer(10*time.Millisecond, "probe") }
func (p *tcpPinger) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.ProbeAck); ok {
		select {
		case <-p.acked:
		default:
			close(p.acked)
		}
	}
}
func (p *tcpPinger) OnTimer(rt Runtime, key any) {
	select {
	case <-p.acked:
		return
	default:
	}
	rt.Send(2, wire.Probe{From: rt.ID(), Seq: 1})
	rt.SetTimer(10*time.Millisecond, "probe")
}

func TestTCPNodePeerTraffic(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	p := &tcpPinger{acked: make(chan struct{})}
	n1 := NewTCPNode(1, addrs, p)
	n2 := NewTCPNode(2, addrs, tcpEcho{})
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	select {
	case <-p.acked:
	case <-time.After(10 * time.Second):
		t.Fatal("no ack over TCP")
	}
	if n1.Addr() == "" {
		t.Fatal("Addr empty after Run")
	}
}

func TestTCPClientSubmit(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	n := NewTCPNode(1, addrs, tcpEcho{})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	res, err := SubmitTCP(ports[0], wire.ClientTxn{Tag: 9, Ops: wire.IncrementOps("x", 1)}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != 9 || !res.Committed || len(res.Reads) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// corpusFrame returns a frame of the wire fuzz corpus, without its
// length prefix.
func corpusFrame(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "fuzz", "FuzzCodecRoundTrip", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil || len(s) == 0 {
		t.Fatalf("%s: %q %v", name, s, err)
	}
	return []byte(s)
}

// gobFrame returns a frame a peer speaking the retired gob codec sent.
func gobFrame(t *testing.T) []byte {
	t.Helper()
	frame := corpusFrame(t, "seed-01")
	if frame[0]&0x80 != 0 {
		t.Fatalf("seed-01 is not a gob frame: %x", frame)
	}
	return frame
}

// TestTCPRejectsGobFrame: a gob frame closes its connection, counted
// and logged with the sender and the first byte, and a binary client of
// the same node still commits.
func TestTCPRejectsGobFrame(t *testing.T) {
	rejectsFrame(t, gobFrame(t))
}

// TestTCPRejectsRetiredKind: a binary frame of a retired message kind
// (a RecoverLog, whose kind number stays reserved) is refused the same
// way.
func TestTCPRejectsRetiredKind(t *testing.T) {
	rejectsFrame(t, corpusFrame(t, "seed-14"))
}

// rejectsFrame sends frame to a node and expects the connection closed,
// net.frame.rejected counted, the sender and first byte logged, and the
// node still serving a binary client.
func rejectsFrame(t *testing.T, frame []byte) {
	t.Helper()
	ports := freePorts(t, 1)
	n := NewTCPNode(1, map[model.ProcID]string{1: ports[0]}, tcpEcho{})
	rec := trace.New(64)
	rec.SetEnabled(true)
	n.SetTracer(rec)
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	conn, err := stdnet.Dial("tcp", ports[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a failed Read says the same
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection not closed after frame %x: %v", frame[:1], err)
	}
	if got := n.Metrics().Get(metrics.CFrameRejected); got != 1 {
		t.Fatalf("%s = %d, want 1", metrics.CFrameRejected, got)
	}
	logged := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvLog && strings.Contains(ev.Msg, conn.LocalAddr().String()) &&
			strings.Contains(ev.Msg, fmt.Sprintf("first byte %#02x", frame[0])) {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no log line names the sender and first byte: %+v", rec.Events())
	}

	res, err := SubmitTCP(ports[0], wire.ClientTxn{Tag: 4, Ops: wire.IncrementOps("x", 1)}, 5*time.Second)
	if err != nil || !res.Committed || res.Tag != 4 {
		t.Fatalf("binary submit after the rejection: res=%+v err=%v", res, err)
	}
}

// TestClientRejectsGobFrame: a Client answered with a gob frame fails
// the submission with an error naming the frame's first byte.
func TestClientRejectsGobFrame(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frame := gobFrame(t)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Read(make([]byte, 64))                                                          //nolint:errcheck // the request only has to arrive
		conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)) //nolint:errcheck // the client reports what it got
		conn.Read(make([]byte, 1))                                                           //nolint:errcheck // hold the connection until the client closes it
	}()

	c := NewClient(ln.Addr().String(), time.Second)
	defer c.Close()
	_, err = c.Submit(wire.ClientTxn{Tag: 1, Ops: wire.IncrementOps("x", 1)}, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("first byte %#02x", frame[0])) {
		t.Fatalf("submit answered with a gob frame: err = %v, want the frame's first byte named", err)
	}
}

// tcpCounter counts probes and reports when the expected total arrived.
type tcpCounter struct {
	want int
	got  int
	done chan struct{}
}

func (c *tcpCounter) Init(rt Runtime) {}
func (c *tcpCounter) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.Probe); ok {
		c.got++
		if c.got == c.want {
			close(c.done)
		}
	}
}
func (c *tcpCounter) OnTimer(rt Runtime, key any) {}

// TestTCPBurstDelivery floods one peer with a burst far larger than
// maxWriteBatch. The messages queue while the connection comes up and
// are then flushed in vectored batches; with the connection healthy,
// every single one must arrive (batching must not drop or reorder into
// omissions).
func TestTCPBurstDelivery(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	const burst = 500
	ctr := &tcpCounter{want: burst, done: make(chan struct{})}
	n1 := NewTCPNode(1, addrs, tcpEcho{})
	n2 := NewTCPNode(2, addrs, ctr)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	for i := 0; i < burst; i++ {
		n1.Send(2, wire.Probe{From: 1, Seq: uint64(i + 1)})
	}
	select {
	case <-ctr.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("burst incomplete: got %d of %d", ctr.got, burst)
	}
}

func TestTCPSendToDeadPeerIsOmission(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	n := NewTCPNode(1, addrs, tcpEcho{})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// Peer 2 never started: Send must not block or crash.
	done := make(chan struct{})
	go func() {
		n.Send(2, wire.Probe{From: 1, Seq: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a dead peer")
	}
}

func TestTCPProcsSorted(t *testing.T) {
	addrs := map[model.ProcID]string{3: "c", 1: "a", 2: "b"}
	n := NewTCPNode(1, addrs, tcpEcho{})
	got := n.Procs()
	want := []model.ProcID{1, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Procs = %v", got)
	}
	if n.Distance(1) != 0 || n.Distance(2) == 0 {
		t.Fatal("Distance: self must be 0, peers non-zero")
	}
}

func TestTCPMissingOwnAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTCPNode(1, map[model.ProcID]string{2: "x"}, tcpEcho{})
}

// recvLog is a handler that reports the sender of every message.
type recvLog struct{ got chan model.ProcID }

func (recvLog) Init(Runtime)                                              {}
func (r recvLog) OnMessage(rt Runtime, from model.ProcID, m wire.Message) { r.got <- from }
func (recvLog) OnTimer(Runtime, any)                                      {}

// TestTCPTopologyInterceptor: a Topology installed as the interceptor
// imposes its can-communicate graph on TCP nodes. A cut link drops in
// both directions, counted at the sender; SetLink builds a
// non-transitive graph; FullMesh restores delivery.
func TestTCPTopologyInterceptor(t *testing.T) {
	ports := freePorts(t, 3)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1], 3: ports[2]}
	topo, err := NewTopology(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[model.ProcID]*TCPNode{}
	logs := map[model.ProcID]recvLog{}
	for p := model.ProcID(1); p <= 3; p++ {
		logs[p] = recvLog{got: make(chan model.ProcID, 16)} // more than the test sends: a turn never blocks
		nodes[p] = NewTCPNode(p, addrs, logs[p])
		nodes[p].SetInterceptor(topo)
		if err := nodes[p].Run(); err != nil {
			t.Fatal(err)
		}
		defer nodes[p].Stop()
	}
	send := func(from, to model.ProcID) {
		nodes[from].Post(func(rt Runtime) { rt.Send(to, wire.Probe{From: from}) })
	}
	arrives := func(from, to model.ProcID) {
		t.Helper()
		select {
		case got := <-logs[to].got:
			if got != from {
				t.Fatalf("node %v heard from %v, want %v", to, got, from)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v -> %v never arrived", from, to)
		}
	}
	dropped := func(p model.ProcID) int64 { return nodes[p].Metrics().Get(metrics.CMsgDropped) }

	topo.Partition([]model.ProcID{1}, []model.ProcID{2, 3})
	send(1, 2)
	send(2, 1)
	if dropped(1) != 1 || dropped(2) != 1 {
		t.Fatalf("across the cut: dropped %d at 1 and %d at 2, want 1 and 1", dropped(1), dropped(2))
	}
	send(2, 3)
	arrives(2, 3)

	topo.FullMesh()
	topo.SetLink(1, 3, false) // 1–2–3 connected, 1–3 not: non-transitive
	send(1, 3)
	if dropped(1) != 2 {
		t.Fatalf("1 -> 3 on a down link: dropped %d at 1, want 2", dropped(1))
	}
	send(1, 2)
	arrives(1, 2)
	send(2, 3)
	arrives(2, 3)

	topo.FullMesh()
	send(1, 3)
	arrives(1, 3)
	send(3, 1)
	arrives(3, 1)
	for p, l := range logs {
		if len(l.got) != 0 {
			t.Fatalf("node %v received a message the topology dropped", p)
		}
	}
}

// tcpTimerNode sets a timer it cancels and one it keeps, and reports
// every firing.
type tcpTimerNode struct{ fired chan any }

func (n tcpTimerNode) Init(rt Runtime) {
	id := rt.SetTimer(time.Hour, "never")
	rt.SetTimer(time.Millisecond, "soon")
	rt.CancelTimer(id)
}
func (tcpTimerNode) OnMessage(Runtime, model.ProcID, wire.Message) {}
func (n tcpTimerNode) OnTimer(rt Runtime, key any)                 { n.fired <- key }

// TestTCPTimersAndStop: a TCP node fires the timers it keeps, never the
// one it cancelled, and a second Stop returns at once.
func TestTCPTimersAndStop(t *testing.T) {
	fired := make(chan any, 2)
	n := NewTCPNode(1, map[model.ProcID]string{1: freePorts(t, 1)[0]}, tcpTimerNode{fired})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case k := <-fired:
		if k != "soon" {
			t.Fatalf("fired %v", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	n.Stop()
	n.Stop() // must not panic or deadlock
	if len(fired) != 0 {
		t.Fatalf("a cancelled timer fired: %v", <-fired)
	}
}
