package net

import (
	"reflect"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// allKindMessages returns one fully-populated message of every
// registered wire kind, the vocabulary a persistent connection must
// carry.
func allKindMessages() []wire.Message {
	vp := model.VPID{N: 7, P: 3}
	txn := model.TxnID{Start: 10, P: 2, Seq: 5}
	ver := model.Version{Date: vp, Ctr: 4, Writer: txn}
	return []wire.Message{
		wire.NewVP{ID: vp},
		wire.AcceptVP{ID: vp, From: 2, Prev: model.VPID{N: 6, P: 1}},
		wire.CommitVP{ID: vp, View: []model.ProcID{1, 2, 3},
			Prevs: map[model.ProcID]model.VPID{1: {N: 6, P: 1}}},
		wire.Probe{From: 1, VP: vp, Seq: 9},
		wire.ProbeAck{From: 2, Seq: 9},
		wire.RecoverRead{Obj: "x", VP: vp, Seq: 1},
		wire.RecoverReadResp{Obj: "x", Seq: 1, OK: true, Val: 42, Ver: ver,
			Comps: []wire.CompEntry{{P: 1, Ver: ver, Total: 3}}},
		wire.RecoverLog{Obj: "x", Since: ver, VP: vp, Seq: 2},
		wire.RecoverLogResp{Obj: "x", Seq: 2, OK: true, Complete: true,
			Entries: []wire.LogEntry{{Val: 1, Ver: ver}}},
		wire.LockReq{Txn: txn, Obj: "x", Mode: model.LockExclusive, Epoch: vp, HasEpoch: true},
		wire.LockResp{Txn: txn, Obj: "x", Status: wire.LockGranted, Val: 5, Ver: ver},
		wire.Prepare{Txn: txn, Epoch: vp, HasEpoch: true,
			Writes: []wire.ObjWrite{{Obj: "x", Val: 6, Ver: ver, MissedBy: []model.ProcID{3}}}},
		wire.Vote{Txn: txn, From: 2, OK: true},
		wire.Decide{Txn: txn, Commit: true},
		wire.DecideAck{Txn: txn, From: 2},
		wire.Release{Txn: txn},
		wire.ClientTxn{Tag: 3, Ops: wire.IncrementOps("x", 1)},
		wire.ClientResult{Tag: 3, Txn: txn, Committed: true,
			Reads: []wire.ObjVal{{Obj: "x", Val: 7}}},
	}
}

// tcpCollector forwards every received message to a channel.
type tcpCollector struct{ ch chan wire.Message }

func (c *tcpCollector) Init(rt Runtime)             {}
func (c *tcpCollector) OnTimer(rt Runtime, key any) {}
func (c *tcpCollector) OnMessage(rt Runtime, from model.ProcID, m wire.Message) {
	c.ch <- m
}

// sendAndExpect sends each message from n1 to processor 2 and waits for
// it to arrive intact at the collector.
func sendAndExpect(t *testing.T, n1 *TCPNode, col *tcpCollector, msgs []wire.Message) {
	t.Helper()
	for _, m := range msgs {
		// The transport is allowed to drop messages (omission failures):
		// retransmit until the collector observes this message, exactly
		// as the protocol layer would.
		deadline := time.Now().Add(10 * time.Second)
		delivered := false
		for !delivered {
			if time.Now().After(deadline) {
				t.Fatalf("message %s never arrived", wire.Kind(m))
			}
			n1.Send(2, m)
			select {
			case got := <-col.ch:
				if !reflect.DeepEqual(got, m) {
					// A duplicate of an earlier retransmission is fine;
					// anything else is a corruption.
					if wire.Kind(got) != wire.Kind(m) {
						continue
					}
					t.Fatalf("round trip of %s:\n got %#v\nwant %#v", wire.Kind(m), got, m)
				}
				delivered = true
			case <-time.After(200 * time.Millisecond):
			}
		}
		// Drain duplicates from retransmissions before the next kind.
		for {
			select {
			case <-col.ch:
				continue
			case <-time.After(10 * time.Millisecond):
			}
			break
		}
	}
}

// TestTCPStreamAllKinds drives every registered wire message kind over a
// single persistent connection.
func TestTCPStreamAllKinds(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	col := &tcpCollector{ch: make(chan wire.Message, 64)}
	n1 := NewTCPNode(1, addrs, tcpEcho{})
	n2 := NewTCPNode(2, addrs, col)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()

	sendAndExpect(t, n1, col, allKindMessages())

	// Exactly one outbound connection must have carried all of it.
	n1.connMu.Lock()
	nconns := len(n1.conns)
	n1.connMu.Unlock()
	if nconns != 1 {
		t.Fatalf("expected 1 persistent peer connection, have %d", nconns)
	}
}

// TestTCPStreamReconnect breaks the persistent connection mid-stream:
// every kind must round-trip again over the replacement connection.
func TestTCPStreamReconnect(t *testing.T) {
	ports := freePorts(t, 2)
	addrs := map[model.ProcID]string{1: ports[0], 2: ports[1]}
	col := &tcpCollector{ch: make(chan wire.Message, 64)}
	n1 := NewTCPNode(1, addrs, tcpEcho{})
	n2 := NewTCPNode(2, addrs, col)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	defer n2.Stop()
	if err := n1.Run(); err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()

	msgs := allKindMessages()
	sendAndExpect(t, n1, col, msgs)

	// Kill the established connection out from under the node.
	n1.connMu.Lock()
	pc := n1.conns[2]
	n1.connMu.Unlock()
	if pc == nil {
		t.Fatal("no peer connection after first batch")
	}
	pc.closeConn()

	// The whole vocabulary must survive the reconnect; sendAndExpect
	// retransmits across the window where the dying connection still
	// swallows sends.
	sendAndExpect(t, n1, col, msgs)
}
