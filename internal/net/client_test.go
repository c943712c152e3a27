package net

import (
	"sync"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

func TestClientMultiplexesSubmits(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	srv := NewTCPNode(1, addrs, tcpEcho{})
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	c := NewClient(ports[0], time.Second)
	defer c.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tag uint64) {
			defer wg.Done()
			res, err := c.Submit(wire.ClientTxn{Tag: tag, Ops: []wire.Op{wire.ReadOp("x")}}, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if !res.Committed || res.Tag != tag {
				errs <- &stringErr{s: "bad result"}
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type stringErr struct{ s string }

func (e *stringErr) Error() string { return e.s }

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	srv := NewTCPNode(1, addrs, tcpEcho{})
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	c := NewClient(ports[0], time.Second)
	defer c.Close()

	if res, err := c.Submit(wire.ClientTxn{Tag: 1, Ops: []wire.Op{wire.ReadOp("x")}}, 2*time.Second); err != nil || !res.Committed {
		t.Fatalf("first submit: res=%+v err=%v", res, err)
	}
	srv.Stop()

	// With the server gone, submits fail (either on write or awaiting the
	// result) rather than hanging.
	if _, err := c.Submit(wire.ClientTxn{Tag: 2, Ops: []wire.Op{wire.ReadOp("x")}}, 300*time.Millisecond); err == nil {
		t.Fatal("submit to a dead server succeeded")
	}

	srv2 := NewTCPNode(1, addrs, tcpEcho{})
	if err := srv2.Run(); err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()

	// The client re-dials on the next submit; allow a couple of attempts
	// for the listener to come up.
	var lastErr error
	for i := 0; i < 10; i++ {
		res, err := c.Submit(wire.ClientTxn{Tag: uint64(10 + i), Ops: []wire.Op{wire.ReadOp("x")}}, time.Second)
		if err == nil && res.Committed {
			return
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("client never recovered: %v", lastErr)
}

func TestClientClose(t *testing.T) {
	c := NewClient("127.0.0.1:1", 100*time.Millisecond)
	c.Close()
	if _, err := c.Submit(wire.ClientTxn{Tag: 1, Ops: []wire.Op{wire.ReadOp("x")}}, time.Second); err != ErrClientClosed {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

func TestClientDuplicateTagRejected(t *testing.T) {
	ports := freePorts(t, 1)
	addrs := map[model.ProcID]string{1: ports[0]}
	srv := NewTCPNode(1, addrs, tcpSilent{})
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	c := NewClient(ports[0], time.Second)
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Submit(wire.ClientTxn{Tag: 5, Ops: []wire.Op{wire.ReadOp("x")}}, 500*time.Millisecond) //nolint:errcheck
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Submit(wire.ClientTxn{Tag: 5, Ops: []wire.Op{wire.ReadOp("x")}}, 100*time.Millisecond); err == nil {
		t.Fatal("duplicate in-flight tag accepted")
	}
	<-done
}

// tcpSilent accepts client txns and never answers.
type tcpSilent struct{}

func (tcpSilent) Init(rt Runtime)                                         {}
func (tcpSilent) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {}
func (tcpSilent) OnTimer(rt Runtime, key any)                             {}
