package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// ErrClientClosed is returned by Client.Submit after Close.
var ErrClientClosed = errors.New("net: client closed")

// Client is a persistent client connection to one node: it dials lazily,
// multiplexes concurrent ClientTxn submissions over the single
// connection (results are matched back by tag, which the server supports
// natively), and re-dials transparently on the next Submit after a
// connection loss. It replaces SubmitTCP's dial-per-request for callers
// that talk to the same node repeatedly — the gateway's pool in
// particular — paying the dial once per connection instead of once per
// transaction.
//
// Each Submit encodes and writes its own frame under the lock, so frames
// of concurrent submitters never interleave and nothing is handed to
// another goroutine on the way out. The write is bounded by the dial
// timeout. A write failure tears the connection down, which fails every
// in-flight Submit — the omission-failure contract of the transport (a
// submission whose result was lost may or may not have executed;
// callers retry under the same at-least-once rules as SubmitTCPRetry).
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu      sync.Mutex
	conn    stdnet.Conn
	enc     wire.FrameEncoder
	pending map[uint64]chan wire.ClientResult
	closed  bool
	// rejected is why the last connection was torn down, when the cause
	// was a frame that did not decode.
	rejected error
}

// NewClient returns an unconnected client for the node at addr. The first
// Submit dials. dialTimeout <= 0 selects 2s.
func NewClient(addr string, dialTimeout time.Duration) *Client {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	return &Client{addr: addr, dialTimeout: dialTimeout}
}

// Addr returns the node address this client dials.
func (c *Client) Addr() string { return c.addr }

// Submit sends one transaction and waits up to timeout for its result.
// Concurrent submissions share the connection; each caller's tag must be
// unique among the in-flight set.
func (c *Client) Submit(t wire.ClientTxn, timeout time.Duration) (wire.ClientResult, error) {
	return c.SubmitCtx(t, model.TraceCtx{}, timeout)
}

// SubmitCtx is Submit with a trace context attached to the outbound
// frame, so the receiving node's transaction handling is parented under
// the caller's span. A zero context adds no bytes to the frame.
func (c *Client) SubmitCtx(t wire.ClientTxn, ctx model.TraceCtx, timeout time.Duration) (wire.ClientResult, error) {
	ch := make(chan wire.ClientResult, 1)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wire.ClientResult{}, ErrClientClosed
	}
	if c.conn == nil {
		conn, err := stdnet.DialTimeout("tcp", c.addr, c.dialTimeout)
		if err != nil {
			c.mu.Unlock()
			return wire.ClientResult{}, err
		}
		c.conn, c.rejected = conn, nil
		c.pending = make(map[uint64]chan wire.ClientResult)
		go c.readLoop(conn)
	}
	if _, dup := c.pending[t.Tag]; dup {
		c.mu.Unlock()
		return wire.ClientResult{}, fmt.Errorf("net: client tag %d already in flight", t.Tag)
	}
	frame, err := c.enc.EncodeFrame(&wire.Envelope{From: model.NoProc, To: model.NoProc, Msg: t, Ctx: ctx})
	if err != nil {
		c.mu.Unlock()
		return wire.ClientResult{}, err
	}
	c.pending[t.Tag] = ch
	c.conn.SetWriteDeadline(time.Now().Add(c.dialTimeout)) //nolint:errcheck // a dead conn fails the write below
	if _, err := c.conn.Write(frame); err != nil {
		// Possibly half-written: the stream is unusable for everyone.
		c.teardownLocked()
		c.mu.Unlock()
		return wire.ClientResult{}, fmt.Errorf("net: write to %s: %w", c.addr, err)
	}
	c.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res, ok := <-ch:
		if !ok {
			c.mu.Lock()
			why := c.rejected
			c.mu.Unlock()
			if why != nil {
				return wire.ClientResult{}, fmt.Errorf("net: connection to %s lost awaiting result: %w", c.addr, why)
			}
			return wire.ClientResult{}, fmt.Errorf("net: connection to %s lost awaiting result", c.addr)
		}
		return res, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, t.Tag)
		c.mu.Unlock()
		return wire.ClientResult{}, fmt.Errorf("net: submit to %s timed out after %v", c.addr, timeout)
	}
}

// readLoop owns the connection's decoder, dispatching each result to the
// Submit waiting on its tag. Any read error tears the connection down,
// failing all in-flight submissions; the next Submit re-dials. A frame
// that does not decode fails them with the reason and the frame's first
// byte.
func (c *Client) readLoop(conn stdnet.Conn) {
	dec := wire.NewDecoder()
	fr := newFrameReader(conn)
	var rejected error
	for {
		frame, err := fr.next()
		if err != nil {
			break
		}
		env, err := dec.Decode(frame)
		if err != nil {
			rejected = rejection(frame, err)
			break
		}
		res, ok := env.Msg.(wire.ClientResult)
		if !ok {
			continue
		}
		c.mu.Lock()
		ch := c.pending[res.Tag]
		delete(c.pending, res.Tag)
		c.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
	c.mu.Lock()
	if c.conn == conn {
		c.rejected = rejected
		c.teardownLocked()
	} else {
		conn.Close()
	}
	c.mu.Unlock()
}

// teardownLocked closes the live connection and fails every in-flight
// submission. Callers hold c.mu.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	for tag, ch := range c.pending {
		close(ch)
		delete(c.pending, tag)
	}
}

// Close tears the connection down; subsequent Submits fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.teardownLocked()
	c.mu.Unlock()
}
