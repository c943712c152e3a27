package main

import (
	"fmt"
	"os"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/locks"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/store"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Probes time calls into the public functions of single layers, from the
// harness's own process, on the workload's own key sequence. They run
// after the measured window with the cluster idle, so they cost the
// end-to-end numbers nothing. These are the only Go symbols of the
// repository the benchmark depends on (pinned in the README).

// probeKeys is how many requests of client 0's stream the in-process
// probes replay.
const probeKeys = 20000

// probeNodeDirect submits read-only transactions straight to one node
// over the client protocol, skipping the gateway: the gateway's share of
// a read is read_p50_ms minus this. Returns the median in milliseconds.
func probeNodeDirect(addr string, names []string, stream []request, log *spanLog) (float64, error) {
	const n = 300
	c := vnet.NewClient(addr, time.Second)
	defer c.Close()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		obj := model.ObjectID(names[stream[i].A])
		began := time.Now()
		res, err := c.Submit(wire.ClientTxn{Tag: uint64(i + 1), Ops: []wire.Op{wire.ReadOp(obj)}}, time.Second)
		if err != nil {
			return 0, fmt.Errorf("probe.node_direct: %w", err)
		}
		if !res.Committed {
			continue // a read that lost a lock race says nothing about the path's cost
		}
		d := time.Since(began)
		lat = append(lat, float64(d)/float64(time.Millisecond))
		log.addTimed("probe.node_direct", began, d)
	}
	if len(lat) == 0 {
		return 0, fmt.Errorf("probe.node_direct: no read committed")
	}
	return median(lat), nil
}

// probeWire times encode + decode of the three 2PC frames (prepare,
// vote, decide) and returns the mean nanoseconds per frame.
func probeWire(log *spanLog) (float64, error) {
	const rounds = 20000
	txn := model.TxnID{Start: 1, P: 1, Seq: 1}
	epoch := model.VPID{N: 3, P: 1}
	frames := []wire.Envelope{
		{From: 1, To: 2, Msg: wire.Prepare{Txn: txn, Epoch: epoch, HasEpoch: true,
			Writes: []wire.ObjWrite{{Obj: "o17", Val: 42, Ver: model.Version{Date: epoch, Ctr: 9}}}}},
		{From: 2, To: 1, Msg: wire.Vote{Txn: txn, From: 2, OK: true, Epoch: epoch, HasEpoch: true}},
		{From: 1, To: 2, Msg: wire.Decide{Txn: txn, Commit: true}},
	}
	enc := wire.NewFrameEncoder(wire.CodecBinary)
	dec := wire.NewDecoder()
	var buf []byte
	var out wire.Envelope
	began := time.Now()
	for i := 0; i < rounds; i++ {
		for f := range frames {
			var err error
			if buf, err = enc.AppendFrame(buf[:0], &frames[f]); err != nil {
				return 0, fmt.Errorf("probe.wire: %w", err)
			}
			if err := dec.DecodeInto(buf[wire.FrameHeaderLen:], &out); err != nil {
				return 0, fmt.Errorf("probe.wire: %w", err)
			}
		}
	}
	d := time.Since(began)
	log.addTimed("probe.wire", began, d)
	return float64(d.Nanoseconds()) / float64(rounds*len(frames)), nil
}

// probeLocks replays the key sequence through a fresh lock table, shared
// for reads and exclusive for writes, and returns nanoseconds per
// acquire + release.
func probeLocks(names []string, stream []request, log *spanLog) float64 {
	m := locks.NewManager()
	objs := objectIDs(names)
	began := time.Now()
	for i := 0; i < probeKeys; i++ {
		r := stream[i]
		mode := model.LockShared
		if r.Kind.isWrite() {
			mode = model.LockExclusive
		}
		txn := model.TxnID{Start: int64(i + 1), P: 1, Seq: uint64(i + 1)}
		m.Acquire(objs[r.A], txn, mode)
		m.Release(objs[r.A], txn)
	}
	d := time.Since(began)
	log.addTimed("probe.locks", began, d)
	return float64(d.Nanoseconds()) / probeKeys
}

// probeStore replays the key sequence through a fresh store as the 2PC
// participant does (stage, then commit the staged write) and returns
// nanoseconds per pair.
func probeStore(names []string, stream []request, log *spanLog) float64 {
	objs := objectIDs(names)
	s := store.New(1, model.FullyReplicated(1, objs...), 0, 1024)
	began := time.Now()
	for i := 0; i < probeKeys; i++ {
		obj := objs[stream[i].A]
		txn := model.TxnID{Start: int64(i + 1), P: 1, Seq: uint64(i + 1)}
		ver := model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: uint64(i + 1), Writer: txn}
		s.Stage(obj, txn, model.Value(i), ver)
		s.CommitStaged(obj, txn)
	}
	d := time.Since(began)
	log.addTimed("probe.store", began, d)
	return float64(d.Nanoseconds()) / probeKeys
}

// probeDurable stages one write and syncs, repeatedly, on a journal in
// the run's own output directory: the host's fsync cost on the
// filesystem the nodes' -data directories use. Returns the median in
// microseconds.
func probeDurable(parent string, names []string, stream []request, log *spanLog) (float64, error) {
	const n = 200
	dir, err := os.MkdirTemp(parent, "probe-durable-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	_, j, err := durable.OpenOptions(dir, durable.Options{})
	if err != nil {
		return 0, fmt.Errorf("probe.durable: %w", err)
	}
	defer j.Close()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		obj := model.ObjectID(names[stream[i].A])
		txn := model.TxnID{Start: int64(i + 1), P: 1, Seq: uint64(i + 1)}
		began := time.Now()
		j.Stage(txn, obj, durable.StagedWrite{Val: model.Value(i), Ver: model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: uint64(i + 1)}})
		if err := j.Sync(); err != nil {
			return 0, fmt.Errorf("probe.durable: %w", err)
		}
		d := time.Since(began)
		lat = append(lat, float64(d)/float64(time.Microsecond))
		log.addTimed("probe.durable_stage_sync", began, d)
	}
	return median(lat), nil
}

func objectIDs(names []string) []model.ObjectID {
	out := make([]model.ObjectID, len(names))
	for i, n := range names {
		out[i] = model.ObjectID(n)
	}
	return out
}
