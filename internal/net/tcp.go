package net

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	stdnet "net"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TCPConfig tunes the transport's failure behavior. The zero value is
// valid and selects the defaults documented per field.
type TCPConfig struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// ReconnectMin is the initial redial backoff after a connection loss
	// or failed dial (default 50ms). Each failed attempt doubles it, with
	// ±25% jitter so peers do not redial in lockstep.
	ReconnectMin time.Duration
	// ReconnectMax caps the redial backoff (default 2s).
	ReconnectMax time.Duration
	// QueueLen bounds each peer's outbound queue (default 1024). Sends
	// beyond it are dropped and accounted — backpressure is a performance
	// failure the protocol tolerates, never a blocked sender.
	QueueLen int
}

func (c TCPConfig) withDefaults() TCPConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 50 * time.Millisecond
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = 2 * time.Second
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = c.ReconnectMin
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	return c
}

// TCPNode hosts one Handler in its own process and exchanges
// length-prefixed envelopes with its peers over TCP. Message loss on
// broken connections is simply an omission failure, which the protocol
// tolerates by design — the transport never retries a message on behalf
// of the protocol. It does, however, keep trying to restore the
// *connection*: each peer has a persistent reconnect loop with
// exponential backoff and jitter, so a transient blip degrades to late
// frames instead of permanently severing the link. A peer that dials us
// while our connection to it is down is evidently back: its first frame
// cuts the backoff short. What had been waiting through more than one
// redial by then is an outage's backlog and is dropped, counted: to the
// protocol a lost message is an omission, a seconds-old one a lie about
// the present.
//
// There is no mailbox: whoever has an event runs the handler for it — a
// connection's reader for the frame it decoded, a timer's goroutine for
// its firing, a Post caller (a committing journal's committer) for its
// continuation — under the one handler mutex hmu, which is what keeps
// Handler's "never concurrently" contract. Messages the handler sends
// its own processor go to a local FIFO that the mutex holder drains, in
// order, before unlocking (no recursion). Runtime methods are for the
// mutex holder; only remote Send/SendCtx is safe from other goroutines.
//
// A remote send is encoded and written by the sender, with ONE
// non-blocking write, when the peer's connection is up and nothing is
// queued ahead of it. What the kernel refuses, and everything sent while
// the peer is down, goes to the peer's bounded queue, which the peer's
// loop — otherwise left with dialing and back-off — writes out. So a
// sender never blocks on the network, overflow is a counted drop, and a
// peer sees the frames it gets in the order they were sent. A connection
// that failed a write, possibly mid-frame, is closed and never written
// again.
//
// A frame that does not decode — corrupt, or from a peer still speaking
// the retired gob codec — closes its connection, counted as
// net.frame.rejected and logged with the sender's address and the
// frame's first byte.
//
// Lock order: hmu → peerConn.mu or acceptedConn.mu, never back; the peer
// loops never take hmu.
//
// Clients connect to the same port, send a wire.ClientTxn envelope (From
// = model.NoProc) and receive wire.ClientResult envelopes back on the
// same connection, matched by tag.
type TCPNode struct {
	id      model.ProcID
	handler Handler
	addrs   map[model.ProcID]string
	cfg     TCPConfig
	icpt    Interceptor // set before Run; nil = no fault injection
	reg     *metrics.Registry
	rec     *trace.Recorder
	start   time.Time

	listener stdnet.Listener
	wg       sync.WaitGroup
	stopOnce sync.Once
	stopped  chan struct{}
	dialCtx  context.Context
	dialStop context.CancelFunc

	connMu   sync.Mutex
	conns    map[model.ProcID]*peerConn
	accepted map[*acceptedConn]struct{}

	clientMu sync.Mutex
	clients  map[uint64]*acceptedConn // txn tag -> submitting client conn

	tmu    sync.Mutex
	nextT  TimerID
	timers map[TimerID]*time.Timer
	rng    *rand.Rand

	// hmu is held for every handler turn and nothing else. cur (trace
	// context of the event being handled) and local (this turn's
	// self-addressed messages, undelivered) belong to its holder.
	hmu   sync.Mutex
	cur   model.TraceCtx
	local []rtEvent
}

// peerConn is the persistent outbound state for one peer, shared by
// senders and the peer's loop under mu. The loop alone dials and makes
// blocking writes — with mu released and flushing set, so that senders
// queue behind it instead of writing past it.
type peerConn struct {
	wake   chan struct{} // the loop's doorbell: work queued, or conn torn down
	redial chan struct{} // the peer dialed us: end the backoff sleep now

	mu   sync.Mutex
	conn stdnet.Conn       // nil while the peer is unreachable
	raw  syscall.RawConn   // conn's descriptor, for tryWrite
	enc  wire.FrameEncoder // stateless between frames: outlives connections
	// queue holds the envelopes that could not be written at once, at
	// most TCPConfig.QueueLen. While the connection is down it only
	// grows, and its first stale envelopes have waited through a failed
	// redial: they are dropped when the connection returns. What a
	// connection back on its first redial finds queued — one ReconnectMin
	// of traffic — is delivered.
	queue  []wire.Envelope
	stale  int
	failed int64 // dials failed since the connection was last up
	// rest is the unwritten tail of the one frame the kernel took only
	// part of; it goes out before queue and dies with the connection.
	rest     []byte
	restKind string
	flushing bool // the loop is writing what it took from rest and queue
}

func (pc *peerConn) ring() {
	select {
	case pc.wake <- struct{}{}:
	default:
	}
}

// condemn marks everything queued so far as the outage's backlog, once
// the first redial has failed. Called with mu held when a backoff sleep
// ends, by whoever ends it.
func (pc *peerConn) condemn() {
	if pc.failed > 1 {
		pc.stale = len(pc.queue)
	}
}

// closeConn closes the live connection if any (unblocking a loop stuck
// in conn.Write). The next write fails, and the loop redials.
func (pc *peerConn) closeConn() {
	pc.mu.Lock()
	if pc.conn != nil {
		pc.conn.Close()
	}
	pc.mu.Unlock()
}

// acceptedConn is an inbound connection. The read loop owns its
// decoder; the encoder side (used for client results) is guarded by
// mu because results for different tags may share the connection.
type acceptedConn struct {
	conn stdnet.Conn
	mu   sync.Mutex
	enc  wire.FrameEncoder
}

// NewTCPNode creates a node with default transport tuning. See
// NewTCPNodeConfig.
func NewTCPNode(id model.ProcID, addrs map[model.ProcID]string, h Handler) *TCPNode {
	return NewTCPNodeConfig(id, addrs, h, TCPConfig{})
}

// NewTCPNodeConfig creates a node that will serve as processor id,
// reachable at addrs[id], with peers at the remaining addresses, using
// the given transport tuning.
func NewTCPNodeConfig(id model.ProcID, addrs map[model.ProcID]string, h Handler, cfg TCPConfig) *TCPNode {
	if _, ok := addrs[id]; !ok {
		panic(fmt.Sprintf("net: no address for own id %v", id))
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &TCPNode{
		id:       id,
		handler:  h,
		addrs:    addrs,
		cfg:      cfg.withDefaults(),
		reg:      metrics.NewRegistry(),
		start:    time.Now(),
		stopped:  make(chan struct{}),
		dialCtx:  ctx,
		dialStop: cancel,
		conns:    make(map[model.ProcID]*peerConn),
		accepted: make(map[*acceptedConn]struct{}),
		clients:  make(map[uint64]*acceptedConn),
		timers:   make(map[TimerID]*time.Timer),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Metrics returns the node's registry.
func (n *TCPNode) Metrics() *metrics.Registry { return n.reg }

// SetTracer installs a structured event recorder. Call before Run; the
// node starts with tracing off (nil recorder).
func (n *TCPNode) SetTracer(r *trace.Recorder) { n.rec = r }

// Tracer implements Runtime.
func (n *TCPNode) Tracer() *trace.Recorder { return n.rec }

// SetInterceptor installs a fault-injecting interceptor consulted on
// every remote send. Call before Run; nil (the default) disables
// injection.
func (n *TCPNode) SetInterceptor(ic Interceptor) { n.icpt = ic }

// Addr returns the listen address after Run has started.
func (n *TCPNode) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Run starts the listener. It returns once the node is serving; call
// Stop to shut down.
func (n *TCPNode) Run() error {
	l, err := stdnet.Listen("tcp", n.addrs[n.id])
	if err != nil {
		return fmt.Errorf("net: listen %s: %w", n.addrs[n.id], err)
	}
	n.listener = l
	n.turn(rtEvent{post: n.handler.Init})
	n.wg.Add(1)
	go n.acceptLoop()
	return nil
}

// Stop shuts the node down: it waits for the handler turn in progress,
// after which no other begins, and for the node's goroutines. Reconnect
// loops abort promptly: in-flight dials are cancelled and backoff sleeps
// are interrupted. Events that had not been handled are dropped — an
// omission failure, which the protocol tolerates.
func (n *TCPNode) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopped)
		n.dialStop()
		if n.listener != nil {
			n.listener.Close()
		}
		n.connMu.Lock()
		for _, pc := range n.conns {
			pc.closeConn()
		}
		for ac := range n.accepted {
			ac.conn.Close()
		}
		n.connMu.Unlock()
	})
	// Wait out the turn in progress; every later one finds stopped closed.
	n.hmu.Lock()
	n.hmu.Unlock() //nolint:staticcheck // the empty critical section is the wait
	n.wg.Wait()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		ac := &acceptedConn{conn: conn}
		n.connMu.Lock()
		n.accepted[ac] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(ac)
	}
}

func (n *TCPNode) readLoop(ac *acceptedConn) {
	defer n.wg.Done()
	defer func() {
		ac.conn.Close()
		n.connMu.Lock()
		delete(n.accepted, ac)
		n.connMu.Unlock()
	}()
	// One persistent decoder per connection. Decoded messages are fully
	// owned: handlers retain message slices past delivery, so borrowed
	// decoding is not safe here.
	dec := wire.NewDecoder()
	fr := newFrameReader(ac.conn)
	for first := true; ; first = false {
		frame, err := fr.next()
		if err != nil {
			return
		}
		env, err := dec.Decode(frame)
		if err != nil {
			n.reject(ac.conn, frame, err)
			return
		}
		if first {
			n.heard(env.From)
		}
		if ct, ok := env.Msg.(wire.ClientTxn); ok && env.From == model.NoProc {
			n.clientMu.Lock()
			n.clients[ct.Tag] = ac
			n.clientMu.Unlock()
		}
		kind := wire.Kind(env.Msg)
		n.reg.Inc(metrics.CMsgDelivered, 1)
		n.reg.Inc(deliveredByKind.Name(kind), 1)
		n.rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvMsgRecv, Peer: env.From, Msg: kind})
		n.turn(rtEvent{from: env.From, msg: env.Msg, ctx: env.Ctx})
	}
}

// reject accounts a frame that did not decode; its connection is closed
// next.
func (n *TCPNode) reject(conn stdnet.Conn, frame []byte, err error) {
	n.reg.Inc(metrics.CFrameRejected, 1)
	n.Logf("net: closing connection from %s: %v", conn.RemoteAddr(), rejection(frame, err))
}

// rejection says why a frame was refused, naming its first byte: a
// retired gob-codec peer's frames lack the 0x80 kind bit.
func rejection(frame []byte, err error) error {
	if len(frame) == 0 {
		return fmt.Errorf("empty frame rejected: %w", err)
	}
	return fmt.Errorf("frame rejected (first byte %#02x): %w", frame[0], err)
}

// heard takes the first frame of a connection a peer dialed as evidence
// that the peer is up: if our own connection to it is down, the backlog
// is condemned as of now — before the handler can queue its answer to
// this very frame — and the peer's loop redials at once.
func (n *TCPNode) heard(from model.ProcID) {
	n.connMu.Lock()
	pc := n.conns[from]
	n.connMu.Unlock()
	if pc == nil {
		return // a client, or a peer we never sent to
	}
	pc.mu.Lock()
	if pc.conn == nil {
		pc.condemn()
		select {
		case pc.redial <- struct{}{}:
		default:
		}
	}
	pc.mu.Unlock()
}

// turn runs the handler on the caller's goroutine, under hmu, for one
// event and then for every message the node sent itself meanwhile, in
// the order sent.
func (n *TCPNode) turn(ev rtEvent) {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	select {
	case <-n.stopped:
		return
	default:
	}
	n.local = append(n.local[:0], ev)
	for i := 0; i < len(n.local); i++ {
		ev, n.local[i] = n.local[i], rtEvent{}
		n.cur = ev.ctx
		switch {
		case ev.post != nil:
			ev.post(n)
		case ev.timer != nil:
			n.tmu.Lock()
			_, live := n.timers[ev.tid]
			delete(n.timers, ev.tid)
			n.tmu.Unlock()
			if live {
				n.handler.OnTimer(n, ev.timer)
			}
		default:
			n.handler.OnMessage(n, ev.from, ev.msg)
		}
	}
}

// frameReader de-frames one inbound stream through a buffered reader: a
// frame costs one read(2), and under load one read(2) brings several.
type frameReader struct {
	br  *bufio.Reader
	buf []byte // payload scratch, grown to the largest frame seen
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 16<<10)}
}

// next returns the next frame's payload, valid until the call after.
func (f *frameReader) next() ([]byte, error) {
	hdr, err := f.br.Peek(wire.FrameHeaderLen)
	if err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	if size > wire.MaxFrame {
		return nil, errors.New("net: oversized frame")
	}
	f.br.Discard(wire.FrameHeaderLen) //nolint:errcheck // just peeked
	if cap(f.buf) < size {
		f.buf = make([]byte, size)
	}
	_, err = io.ReadFull(f.br, f.buf[:size])
	return f.buf[:size], err
}

// peer returns the persistent outbound state for a peer, spawning its
// reconnect loop on first use. It returns nil for unknown processors and
// after Stop.
func (n *TCPNode) peer(to model.ProcID) *peerConn {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if pc, ok := n.conns[to]; ok {
		return pc
	}
	addr, ok := n.addrs[to]
	if !ok {
		return nil
	}
	select {
	case <-n.stopped:
		return nil
	default:
	}
	pc := &peerConn{wake: make(chan struct{}, 1), redial: make(chan struct{}, 1)}
	n.conns[to] = pc
	n.wg.Add(1)
	go n.peerLoop(to, addr, pc)
	return pc
}

// peerLoop keeps one peer reachable: dial (with exponential backoff and
// jitter), hand the connection to senders, write what they had to queue,
// and on any write failure — its own or a sender's — tear it down and
// redial. The loop exits only when the node stops; Stop interrupts both
// in-flight dials (context) and backoff sleeps (stopped channel), and so
// does the peer by dialing us (heard).
func (n *TCPNode) peerLoop(to model.ProcID, addr string, pc *peerConn) {
	defer n.wg.Done()
	// Jitter source local to this loop: n.rng belongs to the handler
	// (Runtime.Rand) and must not be shared across goroutines.
	rng := rand.New(rand.NewSource(int64(n.id)*1_000_003 + int64(to)*7919 + time.Now().UnixNano()))
	backoff := n.cfg.ReconnectMin
	everUp := false
	for {
		select {
		case <-n.stopped:
			return
		default:
		}
		dialer := stdnet.Dialer{Timeout: n.cfg.DialTimeout}
		conn, err := dialer.DialContext(n.dialCtx, "tcp", addr)
		if err != nil {
			pc.mu.Lock()
			pc.failed++
			failed := pc.failed
			pc.mu.Unlock()
			if failed == 1 {
				// One peer-down event per outage, on its first failed dial.
				n.peerDown(to)
			}
			// Exponential backoff with ±25% jitter, capped. A Stop during
			// this sleep aborts the redial promptly.
			d := backoff
			if j := int64(backoff) / 2; j > 0 {
				d += time.Duration(rng.Int63n(j)) - backoff/4
			}
			backoff *= 2
			if backoff > n.cfg.ReconnectMax {
				backoff = n.cfg.ReconnectMax
			}
			t := time.NewTimer(d)
			select {
			case <-n.stopped:
				t.Stop()
				return
			case <-pc.redial:
				t.Stop()
				backoff = n.cfg.ReconnectMin
			case <-t.C:
				pc.mu.Lock()
				pc.condemn()
				pc.mu.Unlock()
			}
			continue
		}
		raw, err := conn.(syscall.Conn).SyscallConn()
		if err != nil {
			panic(fmt.Sprintf("net: no descriptor for a dialed TCP connection: %v", err))
		}
		pc.mu.Lock()
		pc.conn, pc.raw = conn, raw
		for i := range pc.queue[:pc.stale] {
			n.drop(to, wire.Kind(pc.queue[i].Msg))
		}
		pc.queue = slices.Delete(pc.queue, 0, pc.stale)
		dials := pc.failed + 1
		pc.failed, pc.stale = 0, 0
		pc.mu.Unlock()
		select {
		case <-pc.redial: // rung while this dial was under way
		default:
		}
		n.peerUp(to, dials, everUp)
		everUp = true
		backoff = n.cfg.ReconnectMin
		alive := n.flushLoop(to, pc, conn)
		pc.mu.Lock()
		pc.conn, pc.raw, pc.flushing = nil, nil, false
		if len(pc.rest) > 0 {
			n.drop(to, pc.restKind) // its head may have gone out: lost with the connection
			pc.rest = pc.rest[:0]
		}
		pc.mu.Unlock()
		conn.Close()
		if !alive {
			return
		}
		n.peerDown(to)
	}
}

// maxFlushBytes bounds what one blocking write takes from the queue, so
// a long queue of large frames is not encoded into memory at once.
const maxFlushBytes = 64 << 10

// flushLoop writes onto conn what senders could not — the tail of a
// refused frame, then the queue in order — and sleeps when there is
// nothing, until the connection breaks (true: redial) or the node stops.
func (n *TCPNode) flushLoop(to model.ProcID, pc *peerConn, conn stdnet.Conn) bool {
	var out []byte
	var kinds []string
	for {
		pc.mu.Lock()
		if pc.conn != conn {
			pc.mu.Unlock()
			return true // a sender's write failed and tore it down
		}
		out, kinds = append(out[:0], pc.rest...), kinds[:0]
		if len(pc.rest) > 0 {
			kinds = append(kinds, pc.restKind)
			pc.rest = pc.rest[:0]
		}
		taken := 0
		for taken < len(pc.queue) && len(out) < maxFlushBytes {
			env := &pc.queue[taken]
			taken++
			if b, err := pc.enc.AppendFrame(out, env); err != nil {
				n.drop(to, wire.Kind(env.Msg)) // unencodable: an omission
			} else {
				out, kinds = b, append(kinds, wire.Kind(env.Msg))
			}
		}
		rem := copy(pc.queue, pc.queue[taken:])
		clear(pc.queue[rem:])
		pc.queue = pc.queue[:rem]
		pc.flushing = len(out) > 0
		pc.mu.Unlock()
		if len(out) > 0 {
			if _, err := conn.Write(out); err != nil {
				// Possibly half-written: the whole batch is lost.
				for _, k := range kinds {
					n.drop(to, k)
				}
				return true
			}
		}
		if len(out) > 0 {
			continue // more may have queued behind the write
		}
		select {
		case <-n.stopped:
			return false
		case <-pc.wake:
		}
	}
}

// peerUp accounts a (re)established peer connection.
func (n *TCPNode) peerUp(to model.ProcID, attempts int64, re bool) {
	n.reg.Inc(metrics.CPeerUp, 1)
	n.rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvPeerUp, Peer: to, Aux: attempts})
	if re {
		n.reg.Inc(metrics.CPeerReconnect, 1)
		n.rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvReconnect, Peer: to, Aux: attempts})
	}
}

// peerDown accounts a lost (or never-established) peer connection.
func (n *TCPNode) peerDown(to model.ProcID) {
	n.reg.Inc(metrics.CPeerDown, 1)
	n.rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvPeerDown, Peer: to})
}

var (
	_ Runtime = (*TCPNode)(nil)
	_ Poster  = (*TCPNode)(nil)
)

// Post implements Poster.
func (n *TCPNode) Post(fn func(rt Runtime)) { n.turn(rtEvent{post: fn}) }

// ID implements Runtime.
func (n *TCPNode) ID() model.ProcID { return n.id }

// Procs implements Runtime: all configured processors, ascending.
func (n *TCPNode) Procs() []model.ProcID {
	out := make([]model.ProcID, 0, len(n.addrs))
	for p := range n.addrs {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Now implements Runtime.
func (n *TCPNode) Now() time.Duration { return time.Since(n.start) }

// Rand implements Runtime.
func (n *TCPNode) Rand() *rand.Rand { return n.rng }

// Send implements Runtime.
func (n *TCPNode) Send(to model.ProcID, m wire.Message) {
	n.SendCtx(to, m, n.cur)
}

// TraceCtx implements Runtime.
func (n *TCPNode) TraceCtx() model.TraceCtx { return n.cur }

// SendCtx implements Runtime.
func (n *TCPNode) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	if to == n.id {
		n.local = append(n.local, rtEvent{from: n.id, msg: m, ctx: ctx}) // free; this turn delivers it
		return
	}
	kind := wire.Kind(m)
	n.reg.Inc(metrics.CMsgSent, 1)
	n.reg.Inc(sentByKind.Name(kind), 1)
	n.rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvMsgSend, Peer: to, Msg: kind})
	if to == model.NoProc {
		res, ok := m.(wire.ClientResult)
		if !ok {
			return
		}
		n.clientMu.Lock()
		ac := n.clients[res.Tag]
		delete(n.clients, res.Tag)
		n.clientMu.Unlock()
		if ac == nil {
			return
		}
		ac.mu.Lock()
		frame, err := ac.enc.EncodeFrame(&wire.Envelope{From: n.id, To: model.NoProc, Msg: m})
		if err == nil {
			if _, werr := ac.conn.Write(frame); werr != nil {
				// Client gone = omission; account it like any other loss.
				n.drop(to, kind)
			}
		}
		ac.mu.Unlock()
		return
	}
	pc := n.peer(to)
	if pc == nil {
		n.drop(to, kind)
		return
	}
	env := wire.Envelope{From: n.id, To: to, Msg: m, Ctx: ctx}
	if ic := n.icpt; ic != nil {
		v := intercept(ic, n.id, to, m, kind)
		if v.Drop {
			n.drop(to, kind)
			return
		}
		if v.Duplicate {
			n.sendTo(pc, env, kind)
		}
		if v.Delay > 0 {
			time.AfterFunc(v.Delay, func() { n.sendTo(pc, env, kind) })
			return
		}
	}
	n.sendTo(pc, env, kind)
}

// sendTo puts one envelope on its way to a peer without ever blocking:
// written here and now if the connection is up and nothing is ahead of
// it, else queued for the peer's loop, else — queue full — dropped and
// accounted, a performance failure the protocol tolerates.
func (n *TCPNode) sendTo(pc *peerConn, env wire.Envelope, kind string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.conn == nil || pc.flushing || len(pc.rest) > 0 || len(pc.queue) > 0 {
		if len(pc.queue) >= n.cfg.QueueLen {
			n.drop(env.To, kind)
			return
		}
		pc.queue = append(pc.queue, env)
		pc.ring()
		return
	}
	frame, err := pc.enc.EncodeFrame(&env)
	if err != nil {
		n.drop(env.To, kind) // unencodable: an omission
		return
	}
	written, err := tryWrite(pc.raw, frame)
	if err != nil {
		// Broken, possibly mid-frame: the message is lost and nothing
		// more is written here. The loop accounts the outage and redials.
		n.drop(env.To, kind)
		pc.conn.Close()
		pc.conn = nil
		pc.ring()
		return
	}
	if written < len(frame) {
		pc.rest, pc.restKind = append(pc.rest[:0], frame[written:]...), kind
		pc.ring()
	}
}

// drop accounts one lost message in the metrics and the trace.
func (n *TCPNode) drop(to model.ProcID, kind string) {
	n.reg.Inc(metrics.CMsgDropped, 1)
	n.rec.Record(trace.Event{At: n.Now(), Proc: n.id, Kind: trace.EvMsgDrop, Peer: to, Msg: kind})
}

// SetTimer implements Runtime.
func (n *TCPNode) SetTimer(d time.Duration, key any) TimerID {
	n.tmu.Lock()
	n.nextT++
	id := n.nextT
	n.timers[id] = time.AfterFunc(d, func() {
		n.turn(rtEvent{timer: key, tid: id})
	})
	n.tmu.Unlock()
	return id
}

// CancelTimer implements Runtime.
func (n *TCPNode) CancelTimer(id TimerID) {
	n.tmu.Lock()
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
	n.tmu.Unlock()
}

// Distance implements Runtime. Real deployments could measure RTTs; the
// TCP transport reports a uniform distance, which makes "nearest copy"
// degrade to "any local-first copy" (self distance is still 0).
func (n *TCPNode) Distance(to model.ProcID) time.Duration {
	if to == n.id {
		return 0
	}
	return time.Millisecond
}

// Logf implements Runtime: it records an EvLog event when a tracer is
// installed and enabled, and is free otherwise.
func (n *TCPNode) Logf(format string, args ...any) {
	if !n.rec.Enabled() {
		return
	}
	n.rec.Logf(n.Now(), n.id, format, args...)
}

// SubmitTCP sends a transaction to a node at addr and waits for its
// result: a Client for one request, dialed and closed here. It is the
// client side of the TCP transport, used by vpctl.
func SubmitTCP(addr string, t wire.ClientTxn, timeout time.Duration) (wire.ClientResult, error) {
	c := NewClient(addr, timeout)
	defer c.Close()
	return c.Submit(t, timeout)
}

// SubmitTCPRetry submits a transaction with deadline-aware backoff: each
// attempt is one SubmitTCP call with perTry as its timeout, and failed
// attempts — transport errors AND aborted/denied results, both of which
// are expected under partitions — are retried with exponential backoff
// until a result is committed or the deadline passes. On deadline it
// returns the last result and error observed.
//
// Retrying after a transport error resubmits the SAME tag but is a NEW
// transaction as far as the cluster is concerned; a caller whose earlier
// attempt actually committed (result lost in flight) gets the operation
// applied more than once. This at-least-once contract is exactly what
// chaos workloads want; callers needing at-most-once must not retry.
func SubmitTCPRetry(addr string, t wire.ClientTxn, perTry time.Duration, deadline time.Time) (wire.ClientResult, error) {
	backoff := perTry / 8
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	var lastRes wire.ClientResult
	var lastErr error
	for {
		res, err := SubmitTCP(addr, t, perTry)
		if err == nil && res.Committed {
			return res, nil
		}
		lastRes, lastErr = res, err
		if time.Now().Add(backoff).After(deadline) {
			if lastErr == nil {
				lastErr = fmt.Errorf("net: submit deadline passed (last result: committed=%v denied=%v reason=%q)",
					lastRes.Committed, lastRes.Denied, lastRes.Reason)
			}
			return lastRes, lastErr
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
	}
}
