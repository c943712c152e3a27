package net

import (
	"fmt"
	"io"
	stdnet "net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// guardHandler panics if the transport ever runs two handler turns of
// one node at once, and otherwise behaves like a busy node: it answers
// probes and clients, re-arms a timer, and talks to itself.
type guardHandler struct {
	inside                        atomic.Int32
	msgs, timers, posts, selfMsgs atomic.Int64
}

func (g *guardHandler) enter() {
	if !g.inside.CompareAndSwap(0, 1) {
		panic("net: two handler turns of one node at once")
	}
	runtime.Gosched() // widen the window a second entrant would need
}
func (g *guardHandler) leave() { g.inside.Store(0) }

func (g *guardHandler) Init(rt Runtime) {
	g.enter()
	defer g.leave()
	rt.SetTimer(time.Millisecond, "tick")
}

func (g *guardHandler) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	g.enter()
	defer g.leave()
	g.msgs.Add(1)
	switch msg := m.(type) {
	case wire.Probe:
		if from == rt.ID() {
			g.selfMsgs.Add(1)
			return
		}
		rt.Send(from, wire.ProbeAck{From: rt.ID(), Seq: msg.Seq})
		rt.Send(rt.ID(), wire.Probe{From: rt.ID(), Seq: msg.Seq})
	case wire.ClientTxn:
		rt.Send(model.NoProc, wire.ClientResult{Tag: msg.Tag, Committed: true})
	}
}

func (g *guardHandler) OnTimer(rt Runtime, key any) {
	g.enter()
	defer g.leave()
	g.timers.Add(1)
	rt.SetTimer(time.Millisecond, key)
}

func (g *guardHandler) post(rt Runtime) {
	g.enter()
	defer g.leave()
	g.posts.Add(1)
	rt.Send(rt.ID(), wire.Probe{From: rt.ID()})
}

// startNodes runs one node per handler, as processors 1..n.
func startNodes(t testing.TB, handlers ...Handler) []*TCPNode {
	t.Helper()
	addrs := make(map[model.ProcID]string)
	for i, a := range freePorts(t, len(handlers)) {
		addrs[model.ProcID(i+1)] = a
	}
	var nodes []*TCPNode
	for i, h := range handlers {
		n := NewTCPNode(model.ProcID(i+1), addrs, h)
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes = append(nodes, n)
	}
	return nodes
}

// TestTCPHandlerNeverEnteredTwice hammers one node from every direction
// a turn can come from — client connections, peer connections, timers,
// Post from foreign goroutines — and relies on guardHandler to panic if
// the handler mutex ever lets two in.
func TestTCPHandlerNeverEnteredTwice(t *testing.T) {
	g := &guardHandler{}
	nodes := startNodes(t, g, tcpEcho{}, tcpEcho{}, tcpEcho{})
	n1 := nodes[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, peer := range nodes[1:] { // M = 3 peer connections
		wg.Add(1)
		go func(p *TCPNode) {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
					p.SendCtx(1, wire.Probe{From: p.ID(), Seq: seq}, model.TraceCtx{}) // not Send: the ambient context is its handler's
				}
			}
		}(peer)
	}
	for c := 0; c < 4; c++ { // N = 4 client connections
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(n1.Addr(), time.Second)
			defer cl.Close()
			for tag := uint64(c) << 32; ; tag++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Submit(wire.ClientTxn{Tag: tag, Ops: []wire.Op{wire.ReadOp("x")}}, 5*time.Second); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	for p := 0; p < 2; p++ { // foreign goroutines, as a journal's committer is
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n1.Post(g.post)
				}
			}
		}()
	}
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	for name, c := range map[string]*atomic.Int64{"messages": &g.msgs, "timers": &g.timers, "posts": &g.posts, "self-sends": &g.selfMsgs} {
		if c.Load() == 0 {
			t.Errorf("no %s reached the handler: the test did not exercise that entry", name)
		}
	}
}

// selfSender records the order self-addressed messages arrive in and
// whether any arrived while the turn that sent it was still running.
type selfSender struct {
	depth     int
	order     []uint64
	recursive bool
}

func (s *selfSender) Init(Runtime)         {}
func (s *selfSender) OnTimer(Runtime, any) {}
func (s *selfSender) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if s.depth > 0 {
		s.recursive = true
	}
	s.depth++
	defer func() { s.depth-- }()
	p := m.(wire.Probe)
	s.order = append(s.order, p.Seq)
	if p.Seq < 100 { // first generation: each sends one more, behind all of its siblings
		rt.Send(rt.ID(), wire.Probe{Seq: 100 + p.Seq})
	}
}

// TestTCPSelfSendsAfterReturnInOrder: k messages a handler sends its own
// node are delivered after it returns, in the order sent, and what their
// handling sends queues behind them — all within the turn that started it.
func TestTCPSelfSendsAfterReturnInOrder(t *testing.T) {
	const k = 50
	s := &selfSender{}
	n := startNodes(t, s)[0]
	returned := false
	n.Post(func(rt Runtime) {
		s.depth++
		for i := uint64(1); i <= k; i++ {
			rt.Send(rt.ID(), wire.Probe{Seq: i})
		}
		if len(s.order) != 0 {
			t.Errorf("%d self-sends delivered before the sending turn returned", len(s.order))
		}
		s.depth--
		returned = true
	})
	if !returned || s.recursive {
		t.Fatalf("returned=%v recursive=%v", returned, s.recursive)
	}
	if len(s.order) != 2*k {
		t.Fatalf("%d self-addressed messages delivered by the end of the turn, want %d", len(s.order), 2*k)
	}
	for i, seq := range s.order {
		want := uint64(i + 1)
		if i >= k {
			want = 100 + uint64(i-k+1)
		}
		if seq != want {
			t.Fatalf("delivery %d is message %d, want %d (order %v)", i, seq, want, s.order)
		}
	}
}

// bulk is a frame of about 64 KiB carrying seq, so a few hundred fill
// every buffer between two loopback sockets.
func bulk(seq uint64) wire.Message {
	return wire.CatchupResp{OK: true, Objs: []wire.ObjDelta{{Obj: "bulk", Seq: seq, Entries: bulkEntries}}}
}

var bulkEntries = make([]model.Copy, 4096)

// TestTCPStalledPeerNeverStallsATurn: a peer that stops reading — one
// that accepts and never reads, and a real node whose handler is frozen
// mid-turn, as behind a nemesis-frozen disk — costs the sender nothing
// but counted drops: every send returns promptly, and the other peer's
// traffic keeps flowing from the same handler turns.
func TestTCPStalledPeerNeverStallsATurn(t *testing.T) {
	for _, frozenNode := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozenNode=%v", frozenNode), func(t *testing.T) {
			ports := freePorts(t, 3)
			addrs := map[model.ProcID]string{1: ports[0], 2: ports[1], 3: ports[2]}
			if frozenNode {
				f := &tcpFreezer{frozen: make(chan struct{})}
				n2 := NewTCPNode(2, addrs, f)
				if err := n2.Run(); err != nil {
					t.Fatal(err)
				}
				defer n2.Stop()
				defer close(f.frozen) // first: Stop waits for the frozen turn
			} else {
				l, err := stdnet.Listen("tcp", addrs[2])
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				go func() {
					for {
						c, err := l.Accept()
						if err != nil {
							return
						}
						defer c.Close() // held open, never read
					}
				}()
			}
			n3 := NewTCPNode(3, addrs, tcpSilent{})
			if err := n3.Run(); err != nil {
				t.Fatal(err)
			}
			defer n3.Stop()
			n1 := newTCPNode(1, addrs, tcpEcho{}, tcpConfig{queueLen: 32})
			if err := n1.Run(); err != nil {
				t.Fatal(err)
			}
			defer n1.Stop()

			// Both connections up first, so that the only refusals are the
			// stalled peer's kernel buffers.
			for _, to := range []model.ProcID{2, 3} {
				pc := n1.peer(to)
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					pc.mu.Lock()
					up := pc.conn != nil
					pc.mu.Unlock()
					if up {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("no connection to %v", to)
					}
				}
			}
			var slowest time.Duration
			sent := int64(0)
			for n1.Metrics().Get(metrics.CMsgDropped) < 10 {
				if sent++; sent > 4000 {
					t.Fatal("256 MiB sent to a peer that never reads and nothing was refused")
				}
				n1.Post(func(rt Runtime) { // one handler turn, both peers
					start := time.Now()
					rt.Send(2, bulk(uint64(sent)))
					rt.Send(3, wire.Probe{From: 1, Seq: uint64(sent)})
					if d := time.Since(start); d > slowest {
						slowest = d
					}
				})
			}
			if slowest > 500*time.Millisecond {
				t.Fatalf("a turn's sends took %v with a stalled peer; senders must never block", slowest)
			}
			// Every drop was the stalled peer's: the other one got it all.
			for deadline := time.Now().Add(5 * time.Second); n3.Metrics().Get(metrics.CMsgDelivered) < sent; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("peer 3 got %d of %d probes while peer 2 was stalled",
						n3.Metrics().Get(metrics.CMsgDelivered), sent)
				}
			}
			t.Logf("%d turns, slowest %v, %d drops", sent, slowest, n1.Metrics().Get(metrics.CMsgDropped))
		})
	}
}

// tcpFreezer blocks its first handler turn until frozen is closed.
type tcpFreezer struct{ frozen chan struct{} }

func (f *tcpFreezer) Init(Runtime)                                  {}
func (f *tcpFreezer) OnTimer(Runtime, any)                          {}
func (f *tcpFreezer) OnMessage(Runtime, model.ProcID, wire.Message) { <-f.frozen }

// streamLog is what a hand-rolled peer read off one inbound connection.
type streamLog struct {
	seqs    []uint64 // whole frames, in arrival order
	partial bool     // the stream ended inside a frame
	err     error    // bytes that are not a frame, or a read that failed
}

// readStream parses c as the transport's peer would, to the end of the
// stream or the frame numbered last.
func readStream(c stdnet.Conn, last *atomic.Uint64) (log streamLog) {
	fr, dec := newFrameReader(c), wire.NewDecoder()
	for {
		frame, err := fr.next()
		if err != nil {
			if log.partial = err == io.ErrUnexpectedEOF; !log.partial && err != io.EOF {
				log.err = err
			}
			return log
		}
		env, err := dec.Decode(frame)
		if err != nil {
			log.err = fmt.Errorf("after %d whole frames: %w", len(log.seqs), err)
			return log
		}
		seq := uint64(0)
		switch m := env.Msg.(type) {
		case wire.CatchupResp:
			seq = m.Objs[0].Seq
		case wire.Probe:
			seq = m.Seq
		}
		if log.seqs = append(log.seqs, seq); seq == last.Load() {
			return log
		}
	}
}

// TestTCPWriteFailsMidFrame: the connection dies under a blocked write
// with part of a frame out. The sender must tear it down once, redial
// once, and never write to it again — the receiver sees whole frames in
// order, at most one truncated frame, then end of stream — while what
// was queued behind the failure goes out, in order, on the successor.
func TestTCPWriteFailsMidFrame(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	l, err := stdnet.Listen("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	valve := make(chan struct{}) // closed: the peer starts reading
	var last atomic.Uint64       // the final frame's number, set before the valve opens
	var accepted atomic.Int32
	logs := [2]chan streamLog{make(chan streamLog, 1), make(chan streamLog, 1)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			i := accepted.Add(1) - 1
			go func() {
				defer c.Close()
				<-valve
				c.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
				if lg := readStream(c, &last); i < 2 {
					logs[i] <- lg
				}
			}()
		}
	}()
	n1 := newTCPNode(1, addrs, tcpEcho{}, tcpConfig{queueLen: 4096, reconnectMin: 10 * time.Millisecond})
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()

	// Fill the path until the peer's loop sits in a blocking write that
	// makes no progress, with more queued behind it.
	seq := uint64(0)
	pc := n1.peer(2)
	state := func() (flushing bool, queued int) {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return pc.conn != nil && pc.flushing, len(pc.queue)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatal("never filled the connection")
		}
		if flushing, queued := state(); flushing && queued > 8 {
			time.Sleep(50 * time.Millisecond)
			if f2, q2 := state(); f2 && q2 == queued {
				break
			}
		}
		seq++
		n1.Send(2, bulk(seq))
	}
	pc.closeConn()            // fails that write mid-frame
	for i := 0; i < 20; i++ { // traffic across the teardown and the redial
		seq++
		n1.Send(2, wire.Probe{From: 1, Seq: seq})
		time.Sleep(5 * time.Millisecond)
	}
	last.Store(seq)
	close(valve)

	first, second := <-logs[0], <-logs[1]
	for i, lg := range []streamLog{first, second} {
		if lg.err != nil {
			t.Fatalf("connection %d carried bytes that are not frames (one written after half of another?): %v", i+1, lg.err)
		}
		for j := 1; j < len(lg.seqs); j++ {
			if lg.seqs[j] <= lg.seqs[j-1] {
				t.Fatalf("connection %d out of order: %v", i+1, lg.seqs)
			}
		}
	}
	if second.partial {
		t.Fatal("the successor connection ended inside a frame")
	}
	if len(first.seqs) == 0 || len(second.seqs) == 0 || second.seqs[0] <= first.seqs[len(first.seqs)-1] {
		t.Fatalf("want frames on both connections, the successor's all later: %v then %v", first.seqs, second.seqs)
	}
	if got := second.seqs[len(second.seqs)-1]; got != seq {
		t.Fatalf("last frame on the successor is %d, want the last one sent, %d", got, seq)
	}
	reg := n1.Metrics()
	if up, down, re := reg.Get(metrics.CPeerUp), reg.Get(metrics.CPeerDown), reg.Get(metrics.CPeerReconnect); up != 2 || down != 1 || re != 1 {
		t.Fatalf("peer up/down/reconnect = %d/%d/%d, want 2/1/1: one teardown, one redial", up, down, re)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("%d connections opened, want 2", n)
	}
	t.Logf("connection 1: frames %d..%d, truncated tail=%v; connection 2: frames %d..%d",
		first.seqs[0], first.seqs[len(first.seqs)-1], first.partial, second.seqs[0], second.seqs[len(second.seqs)-1])
}

// TestTCPStopInFlight: Stop with handler turns, timers and Post callers
// in flight returns, lets no turn begin afterwards, and leaves no
// goroutine of the node behind.
func TestTCPStopInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	g := &guardHandler{}
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	n1 := NewTCPNode(1, addrs, g)
	n2 := NewTCPNode(2, addrs, tcpEcho{})
	for _, n := range []*TCPNode{n2, n1} {
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func() { // a committer releasing barriers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					n1.Post(g.post)
				}
			}
		}()
		go func(i int) { // a client that keeps a turn in flight
			defer wg.Done()
			cl := NewClient(n1.Addr(), time.Second)
			defer cl.Close()
			for tag := uint64(i) << 32; ; tag++ {
				select {
				case <-stop:
					return
				default:
					cl.Submit(wire.ClientTxn{Tag: tag}, 100*time.Millisecond) //nolint:errcheck // fails once n1 stops
				}
			}
		}(i)
	}
	for seq := uint64(1); seq <= 200; seq++ {
		n2.SendCtx(1, wire.Probe{From: 2, Seq: seq}, model.TraceCtx{})
	}
	time.Sleep(100 * time.Millisecond)
	stopped := make(chan struct{})
	go func() { n1.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with turns, timers and Post in flight")
	}
	turns := g.msgs.Load() + g.timers.Load() + g.posts.Load()
	time.Sleep(20 * time.Millisecond) // timers armed before Stop fire about now
	if after := g.msgs.Load() + g.timers.Load() + g.posts.Load(); after != turns {
		t.Fatalf("%d handler turns began after Stop returned", after-turns)
	}
	close(stop)
	wg.Wait()
	n2.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Stop:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientFramesNeverInterleave: frames of concurrent submitters, large
// enough that one write(2) rarely takes a whole one, reach the node as
// whole frames.
func TestClientFramesNeverInterleave(t *testing.T) {
	n := startNodes(t, tcpEcho{})[0]
	cl := NewClient(n.Addr(), 5*time.Second)
	defer cl.Close()
	ops := make([]wire.Op, 20_000)
	for i := range ops {
		ops[i] = wire.ReadOp(model.ObjectID(fmt.Sprintf("object-%06d", i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tag := uint64(g)<<32 | uint64(i)
				res, err := cl.Submit(wire.ClientTxn{Tag: tag, Ops: ops[:1+(g*2500+i*97)%len(ops)]}, 10*time.Second)
				if err != nil || res.Tag != tag {
					// A torn frame makes the node drop the connection,
					// which fails the submits in flight on it.
					t.Errorf("submit %d/%d: res=%+v err=%v", g, i, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClientWriteErrorFailsInFlightOnce: a write that cannot complete
// tears the connection down; every submit in flight on it — the writer
// and those already waiting for results — returns one error, none hangs
// and none is answered; the next submit dials afresh.
func TestClientWriteErrorFailsInFlightOnce(t *testing.T) {
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serve := make(chan bool, 2) // per accepted connection: answer, or hold it unread
	serve <- false
	serve <- true
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(answer bool) {
				defer c.Close()
				if !answer {
					time.Sleep(3 * time.Second)
					return
				}
				fr, dec, enc := newFrameReader(c), wire.NewDecoder(), new(wire.FrameEncoder)
				for {
					frame, err := fr.next()
					if err != nil {
						return
					}
					env, err := dec.Decode(frame)
					if err != nil {
						return
					}
					out, _ := enc.EncodeFrame(&wire.Envelope{Msg: wire.ClientResult{Tag: env.Msg.(wire.ClientTxn).Tag, Committed: true}})
					c.Write(out) //nolint:errcheck
				}
			}(<-serve)
		}
	}()
	cl := NewClient(l.Addr().String(), 200*time.Millisecond) // also the write deadline
	defer cl.Close()
	const waiting = 8
	errs := make(chan error, waiting+1)
	for i := 0; i < waiting; i++ {
		go func(tag uint64) {
			_, err := cl.Submit(wire.ClientTxn{Tag: tag}, 10*time.Second)
			errs <- err
		}(uint64(i + 1))
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cl.mu.Lock()
		n := len(cl.pending)
		cl.mu.Unlock()
		if n == waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d submits in flight", n, waiting)
		}
	}
	huge := make([]wire.Op, 400_000) // ~8 MiB: more than an unread loopback path buffers
	for i := range huge {
		huge[i] = wire.ReadOp("an-object-with-a-long-name")
	}
	go func() {
		_, err := cl.Submit(wire.ClientTxn{Tag: 1000, Ops: huge}, 10*time.Second)
		errs <- err
	}()
	for i := 0; i < waiting+1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a submit on the torn connection was answered")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d in-flight submits failed; the rest hang", i, waiting+1)
		}
	}
	select {
	case err := <-errs:
		t.Fatalf("a submit returned twice: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if res, err := cl.Submit(wire.ClientTxn{Tag: 2000}, 5*time.Second); err != nil || res.Tag != 2000 {
		t.Fatalf("submit after the teardown: res=%+v err=%v", res, err)
	}
}

// roundTripper sends one probe to processor 2 per Post and reports the
// ack.
type roundTripper struct{ acked chan struct{} }

func (r *roundTripper) Init(Runtime)         {}
func (r *roundTripper) OnTimer(Runtime, any) {}
func (r *roundTripper) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	if _, ok := m.(wire.ProbeAck); ok {
		r.acked <- struct{}{}
	}
}

// BenchmarkTCPRoundTrip is the cost of one message hop and back between
// two TCPNodes on loopback, connections warm: send from a handler turn,
// the peer's handler answers, the answer's handler turn reports.
func BenchmarkTCPRoundTrip(b *testing.B) {
	r := &roundTripper{acked: make(chan struct{}, 1)}
	nodes := startNodes(b, r, tcpEcho{})
	probe := func(rt Runtime) { rt.Send(2, wire.Probe{From: 1, Seq: 1}) }
	for warm := false; !warm; { // both directions dialed
		nodes[0].Post(probe)
		select {
		case <-r.acked:
			warm = true
		case <-time.After(50 * time.Millisecond):
		}
	}
	time.Sleep(100 * time.Millisecond)
	for len(r.acked) > 0 {
		<-r.acked
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].Post(probe)
		<-r.acked
	}
}
