package net

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	stdnet "net"
	"sync"
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
	// Codec selects the wire encoding for outbound frames. The zero
	// value is wire.CodecBinary (the hand-rolled zero-copy codec);
	// wire.CodecGob selects the PR-1 streaming gob codec. Inbound frames
	// are always auto-detected per frame, so the two ends of a
	// connection may be configured differently.
	Codec wire.CodecID
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
// exponential backoff and jitter, so a transient blip degrades to a
// bounded burst of omissions instead of permanently severing the link.
//
// Every connection carries one persistent encoder per direction
// (wire.FrameEncoder on the writer, selected by TCPConfig.Codec) and one
// auto-detecting wire.Decoder on the reader, so mixed-codec clusters
// interoperate frame by frame. Outbound envelopes are coalesced: the
// write loop drains everything queued for a peer and flushes the batch
// with a single vectored write (net.Buffers / writev), so a protocol
// round's burst to one peer costs one syscall. A reconnect starts a
// fresh codec pair.
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
	mbox     chan rtEvent
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

	// cur is the trace context of the event being handled. Only the
	// event-loop goroutine touches it (Send is handler code on that
	// goroutine), so it needs no lock.
	cur model.TraceCtx
}

// peerConn is the persistent outbound state for one peer: a bounded
// envelope queue drained by the peer's reconnect loop, plus the live
// connection (nil while the peer is unreachable). The loop owns the
// connection's encoder, so Send never blocks on the network or the
// encoder.
type peerConn struct {
	out chan wire.Envelope

	mu   sync.Mutex
	conn stdnet.Conn
}

func (pc *peerConn) setConn(c stdnet.Conn) {
	pc.mu.Lock()
	pc.conn = c
	pc.mu.Unlock()
}

// closeConn closes the live connection if any (unblocking a writer stuck
// in conn.Write). The reconnect loop decides what happens next.
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
		mbox:     make(chan rtEvent, 4096),
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

// Run starts the listener and the node's event loop. It returns once the
// node is serving; call Stop to shut down.
func (n *TCPNode) Run() error {
	l, err := stdnet.Listen("tcp", n.addrs[n.id])
	if err != nil {
		return fmt.Errorf("net: listen %s: %w", n.addrs[n.id], err)
	}
	n.listener = l
	n.handler.Init(n)
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
	return nil
}

// Stop shuts the node down and waits for its goroutines. Reconnect loops
// abort promptly: in-flight dials are cancelled and backoff sleeps are
// interrupted.
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
	n.wg.Wait()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		ac := &acceptedConn{conn: conn, enc: wire.NewFrameEncoder(n.cfg.Codec)}
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
	// One persistent decoder per connection, auto-detecting the codec
	// per frame (binary frames set the payload high bit; everything else
	// belongs to the connection's gob stream). Decoded messages are
	// fully owned: the mailbox is asynchronous and handlers retain
	// message slices past delivery, so borrowed decoding is not safe
	// here.
	dec := wire.NewDecoder()
	fb := frameScratch.Get().(*frameBuf)
	defer frameScratch.Put(fb)
	for {
		frame, err := readFrame(ac.conn, fb)
		if err != nil {
			return
		}
		env, err := dec.Decode(frame)
		if err != nil {
			return // corrupted peer; drop the connection
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
		n.enqueue(rtEvent{from: env.From, msg: env.Msg, ctx: env.Ctx})
	}
}

func (n *TCPNode) eventLoop() {
	defer n.wg.Done()
	// The mailbox is never closed: closing would race with concurrent
	// enqueues from read loops and timers. Shutdown is signalled through
	// the stopped channel instead, and undelivered events are dropped —
	// an omission failure, which the protocol tolerates.
	for {
		select {
		case <-n.stopped:
			return
		case ev := <-n.mbox:
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
					n.handler.OnTimer(n, ev.timer)
				}
				continue
			}
			n.cur = ev.ctx
			n.handler.OnMessage(n, ev.from, ev.msg)
		}
	}
}

func (n *TCPNode) enqueue(ev rtEvent) {
	select {
	case <-n.stopped:
	case n.mbox <- ev:
	}
}

// frameBuf is a reusable scratch buffer for de-framing inbound messages.
// Pooled so concurrent read loops recycle payload buffers instead of
// allocating one per message.
type frameBuf struct{ b []byte }

var frameScratch = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 4096)} }}

// readFrame reads one length-prefixed frame into fb's buffer, growing it
// as needed. The returned slice aliases fb.b and is valid until the next
// call with the same fb.
func readFrame(r io.Reader, fb *frameBuf) ([]byte, error) {
	var lenBuf [wire.FrameHeaderLen]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > wire.MaxFrame {
		return nil, errors.New("net: oversized frame")
	}
	if cap(fb.b) < int(size) {
		fb.b = make([]byte, size)
	}
	buf := fb.b[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
	pc := &peerConn{out: make(chan wire.Envelope, n.cfg.QueueLen)}
	n.conns[to] = pc
	n.wg.Add(1)
	go n.peerLoop(to, addr, pc)
	return pc
}

// peerLoop keeps one peer reachable: dial (with exponential backoff and
// jitter), drain the outbound queue onto the connection, and on any
// failure tear the connection down and redial. The loop exits only when
// the node stops; Stop interrupts both in-flight dials (context) and
// backoff sleeps (stopped channel).
func (n *TCPNode) peerLoop(to model.ProcID, addr string, pc *peerConn) {
	defer n.wg.Done()
	defer pc.closeConn()
	// Jitter source local to this loop: n.rng belongs to the handler
	// event loop (Runtime.Rand) and must not be shared across goroutines.
	rng := rand.New(rand.NewSource(int64(n.id)*1_000_003 + int64(to)*7919 + time.Now().UnixNano()))
	backoff := n.cfg.ReconnectMin
	attempts := int64(0)
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
			attempts++
			if attempts == 1 {
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
			case <-t.C:
			}
			continue
		}
		pc.setConn(conn)
		n.peerUp(to, attempts+1, everUp)
		everUp = true
		attempts = 0
		backoff = n.cfg.ReconnectMin
		alive := n.writeLoop(to, pc, conn)
		pc.setConn(nil)
		conn.Close()
		if !alive {
			return
		}
		n.peerDown(to)
	}
}

// maxWriteBatch bounds how many queued envelopes one flush coalesces.
// 64 comfortably covers a protocol round's burst to one peer while
// keeping the iovec far below the kernel's writev limit (IOV_MAX 1024).
const maxWriteBatch = 64

// writeLoop drains the peer's queue onto conn until the connection
// breaks (returns true: redial) or the node stops (returns false).
//
// Queued envelopes are coalesced: after blocking for the first one, the
// loop non-blockingly drains whatever else is waiting (up to
// maxWriteBatch), encodes each frame into its own pooled buffer, and
// flushes the batch with one vectored write — a round's fan-in of
// messages to one peer costs one writev instead of one syscall per
// message.
func (n *TCPNode) writeLoop(to model.ProcID, pc *peerConn, conn stdnet.Conn) bool {
	// The loop owns this connection's encoder. A reconnect starts a
	// fresh pair (which for the gob fallback re-handshakes the type
	// descriptors; the binary codec is stateless per frame).
	enc := wire.NewFrameEncoder(n.cfg.Codec)
	held := make([]*frameBuf, 0, maxWriteBatch)
	bufs := make(stdnet.Buffers, 0, maxWriteBatch)
	kinds := make([]string, 0, maxWriteBatch)
	encode := func(env *wire.Envelope) bool {
		fb := frameScratch.Get().(*frameBuf)
		b, err := enc.AppendFrame(fb.b[:0], env)
		if err != nil {
			frameScratch.Put(fb)
			n.drop(to, wire.Kind(env.Msg))
			return false
		}
		fb.b = b
		held = append(held, fb)
		bufs = append(bufs, b)
		kinds = append(kinds, wire.Kind(env.Msg))
		return true
	}
	for {
		select {
		case <-n.stopped:
			return false
		case env := <-pc.out:
			ok := encode(&env)
		drain:
			for ok && len(bufs) < maxWriteBatch {
				select {
				case env = <-pc.out:
					ok = encode(&env)
				default:
					break drain
				}
			}
			// WriteTo consumes its receiver (advancing the slice and
			// nilling written entries), so it gets a scratch copy; held
			// keeps the pooled buffers reachable until recycled below.
			vec := bufs
			_, werr := vec.WriteTo(conn)
			for _, fb := range held {
				frameScratch.Put(fb)
			}
			if werr != nil {
				// Possibly half-written: the whole batch is lost
				// (omission) and accounted as dropped.
				for _, k := range kinds {
					n.drop(to, k)
				}
			}
			held, bufs, kinds = held[:0], bufs[:0], kinds[:0]
			if !ok {
				// Encoder failure: the stream is suspect (a gob encoder
				// may have half-written state); that message is lost and
				// the connection reconnects with fresh codecs. Frames
				// encoded before the failure were still flushed above.
				return true
			}
			if werr != nil {
				return true
			}
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
func (n *TCPNode) Post(fn func(rt Runtime)) { n.enqueue(rtEvent{post: fn}) }

// ID implements Runtime.
func (n *TCPNode) ID() model.ProcID { return n.id }

// Procs implements Runtime: all configured processors, ascending.
func (n *TCPNode) Procs() []model.ProcID {
	out := make([]model.ProcID, 0, len(n.addrs))
	for p := range n.addrs {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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
		n.enqueue(rtEvent{from: n.id, msg: m, ctx: ctx}) // local, free
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
			n.queueOut(pc, to, env, kind)
		}
		if v.Delay > 0 {
			time.AfterFunc(v.Delay, func() { n.queueOut(pc, to, env, kind) })
			return
		}
	}
	n.queueOut(pc, to, env, kind)
}

// queueOut hands one envelope to the peer's bounded queue, dropping (with
// accounting) on backpressure — a performance failure, never a block.
func (n *TCPNode) queueOut(pc *peerConn, to model.ProcID, env wire.Envelope, kind string) {
	select {
	case <-n.stopped:
	case pc.out <- env:
	default:
		n.drop(to, kind)
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
		n.enqueue(rtEvent{timer: key, tid: id})
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
// result. It is the client side of the TCP transport, used by vpctl.
// Requests go out in the binary codec (servers auto-detect per frame,
// so this is always safe regardless of the node's configured codec).
func SubmitTCP(addr string, t wire.ClientTxn, timeout time.Duration) (wire.ClientResult, error) {
	conn, err := stdnet.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return wire.ClientResult{}, err
	}
	defer conn.Close()
	enc := wire.NewBinaryEncoder()
	frame, err := enc.EncodeFrame(&wire.Envelope{From: model.NoProc, To: model.NoProc, Msg: t})
	if err != nil {
		return wire.ClientResult{}, err
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return wire.ClientResult{}, fmt.Errorf("net: set submit deadline: %w", err)
	}
	if _, err := conn.Write(frame); err != nil {
		return wire.ClientResult{}, err
	}
	dec := wire.NewDecoder()
	fb := frameScratch.Get().(*frameBuf)
	defer frameScratch.Put(fb)
	for {
		raw, err := readFrame(conn, fb)
		if err != nil {
			return wire.ClientResult{}, err
		}
		env, err := dec.Decode(raw)
		if err != nil {
			return wire.ClientResult{}, err
		}
		if res, ok := env.Msg.(wire.ClientResult); ok && res.Tag == t.Tag {
			return res, nil
		}
	}
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
