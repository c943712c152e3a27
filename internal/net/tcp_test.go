package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	stdnet "net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// freePorts returns n loopback addresses nobody listens on, for nodes
// that will listen there a moment later. The ports are drawn from below
// the kernel's ephemeral range: one handed out by Listen(":0") can be
// taken again, as the source port of any dial on the machine, before
// the node binds it.
func freePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 100*n {
			t.Fatal("no free port below the ephemeral range")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", 10000+rand.Intn(20000))
		if slices.Contains(addrs, addr) {
			continue
		}
		if l, err := stdnet.Listen("tcp", addr); err == nil {
			l.Close()
			addrs = append(addrs, addr)
		}
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

// gobFrame returns a frame a peer speaking the retired gob codec sent: a
// seed of the wire fuzz corpus, without its length prefix.
func gobFrame(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "fuzz", "FuzzCodecRoundTrip", "seed-01"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 3)
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil || len(s) == 0 || s[0]&0x80 != 0 {
		t.Fatalf("seed-01 is not a gob frame: %q %v", s, err)
	}
	return []byte(s)
}

// TestTCPRejectsGobFrame: a gob frame closes its connection, counted
// and logged with the sender and the first byte, and a binary client of
// the same node still commits.
func TestTCPRejectsGobFrame(t *testing.T) {
	ports := freePorts(t, 1)
	n := NewTCPNode(1, map[model.ProcID]string{1: ports[0]}, tcpEcho{})
	rec := trace.New(64)
	rec.SetEnabled(true)
	n.SetTracer(rec)
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	frame := gobFrame(t)
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
		t.Fatalf("connection not closed after a gob frame: %v", err)
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
