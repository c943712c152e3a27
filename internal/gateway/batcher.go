package gateway

import (
	"fmt"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// batcher implements group commit: concurrent single-object logical
// writes are coalesced (wire.Batch) into ONE shared transaction round,
// so one pass of locking and two-phase commit carries many logical
// writes. Under contention this is the difference between N serialized
// lock/2PC rounds (each txn waiting out or aborting its predecessors
// under wait-die) and one round per conveyor slot.
//
// The protocol orders only CONFLICTING accesses (strict two-phase
// locking per copy), so the conveyor does too. A single goroutine owns
// every lane's queue and applies one departure rule (batcher.pump): an
// entry leaves in a round as soon as no in-flight round of its lane
// touches its object and the lane is below its depth bound. A write on
// an idle object therefore departs the moment it arrives, as its own
// round, however many unrelated rounds are in flight; a write on a busy
// object — or one that finds the lane full — queues, and everything the
// next completion unblocks rides out together as one round. Rounds on a
// hot object thus still size themselves to the natural commit latency.
//
// The window is only an upper bound on how long an entry may queue
// (covering slow in-flight rounds), and maxSize on how many may: past
// either the queue departs regardless of what is in flight.
//
// Entries a forming round refuses (conflicting blind writes, see
// wire.Batch.Add) stay queued for the NEXT round, preserving the
// serial-equivalence argument; later entries on the same object stay
// behind them, so one object's writes depart in arrival order.
//
// Sharded deployments run one conveyor LANE per shard inside the same
// goroutine: every round is single-shard (so the backend transaction
// never needs cross-shard two-phase commit), each lane keeps its own
// queue and in-flight set, and one timer is armed to the earliest queued
// deadline. The unsharded gateway degenerates to a single model.NoShard
// lane.
type batcher struct {
	window  time.Duration
	maxSize int
	depth   func(model.ShardID) int // lane depth bound, see lane.depth
	backend submitter
	tags    *tagSource
	spans   *spanSource
	reg     *metrics.Registry
	tr      *trace.Recorder
	clock   func() time.Duration

	reqCh  chan batchReq
	stopCh chan struct{}
	doneCh chan struct{}
}

// batchReq is one logical write awaiting its round.
type batchReq struct {
	entry wire.BatchEntry
	obj   model.ObjectID // the one object the entry writes
	ctx   model.TraceCtx // trace context of the constituent (zero if unsampled)
	node  model.ProcID   // session-preferred node of the FIRST constituent routes the round
	shard model.ShardID  // conveyor lane (NoShard when unsharded)
	at    time.Duration  // submit time on the batcher's clock
	due   time.Duration  // latest departure: at + window, restarted when a forced round refuses the entry
	reply chan batchReply
}

type batchReply struct {
	res  wire.ClientResult
	node model.ProcID // node that served the shared round
	err  error
}

func newBatcher(window time.Duration, maxSize int, depth func(model.ShardID) int, backend submitter,
	tags *tagSource, spans *spanSource, reg *metrics.Registry, tr *trace.Recorder,
	clock func() time.Duration) *batcher {
	if spans == nil {
		spans = &spanSource{}
	}
	b := &batcher{
		window: window, maxSize: maxSize, depth: depth, backend: backend, tags: tags, spans: spans,
		reg: reg, tr: tr, clock: clock,
		reqCh:  make(chan batchReq),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go b.run()
	return b
}

// request stamps one batchable logical write for the conveyor. A
// batchable entry is a single-object write and its first op names the
// object (wire.Batchable).
func (b *batcher) request(e wire.BatchEntry, ctx model.TraceCtx, node model.ProcID, shard model.ShardID) batchReq {
	now := b.clock()
	return batchReq{entry: e, obj: e.Ops[0].Obj, ctx: ctx, node: node, shard: shard,
		at: now, due: now + b.window, reply: make(chan batchReply, 1)}
}

// submit hands one batchable logical write to the batcher and waits for
// its individual result out of the shared round, reporting which node
// served it. shard selects the conveyor lane the write coalesces in
// (model.NoShard when the deployment is unsharded).
func (b *batcher) submit(e wire.BatchEntry, ctx model.TraceCtx, node model.ProcID, shard model.ShardID) (wire.ClientResult, model.ProcID, error) {
	req := b.request(e, ctx, node, shard)
	select {
	case b.reqCh <- req:
	case <-b.stopCh:
		return wire.ClientResult{}, model.NoProc, errGatewayClosed
	}
	select {
	case rep := <-req.reply:
		return rep.res, rep.node, rep.err
	case <-b.stopCh:
		return wire.ClientResult{}, model.NoProc, errGatewayClosed
	}
}

// round is one departed group-commit round.
type round struct {
	batch *wire.Batch
	reqs  []batchReq // constituents, in batch order
	lane  *lane
	node  model.ProcID
	// ctx is the trace context of the first SAMPLED constituent; the
	// round's shared backend transaction rides under it as a
	// gw-batch-round child span.
	ctx model.TraceCtx
}

// lane is one shard's conveyor state: the entries that could not depart
// yet, in arrival order, and what its in-flight rounds touch.
type lane struct {
	queue  []batchReq
	flying map[model.ObjectID]int // in-flight entries per object
	rounds int                    // rounds in flight
	// depth bounds the rounds in flight below which a write on an idle
	// object departs alone: the number of processors that can coordinate
	// the lane's rounds. A node's handler is single-threaded, so rounds
	// beyond one per coordinator only queue there; past the bound the
	// lane coalesces instead.
	depth int
	// Per-lane counter names ("" when unsharded): the load generator
	// reports per-shard round counts straight off /gw/stats.
	roundsName, writesName string
}

// pump is the conveyor's one departure rule. It forms at most one round
// from the queued entries that may leave now — object untouched by any
// in-flight round, lane below its depth bound — and sends it off. force
// (window expiry, queue at maxSize) waives both conditions. Entries the
// forming round refuses, and later entries on their objects, stay
// queued.
func (b *batcher) pump(ln *lane, force bool, done chan<- *round) {
	if len(ln.queue) == 0 || (!force && ln.rounds >= ln.depth) {
		return
	}
	now := b.clock()
	var r *round
	var held map[model.ObjectID]bool // objects whose entry the forming round refused
	kept := ln.queue[:0]
	for _, req := range ln.queue {
		leave := held[req.obj] || (!force && ln.flying[req.obj] > 0)
		if !leave {
			if r == nil {
				r = &round{batch: wire.NewBatch(b.tags.next()), lane: ln, node: req.node}
			}
			if leave = !r.batch.Add(req.entry); leave {
				if r.batch.Len() == 0 {
					panic("gateway: unbatchable entry reached the batcher")
				}
				if held == nil {
					held = make(map[model.ObjectID]bool)
				}
				held[req.obj] = true
			}
		}
		if leave {
			if force {
				req.due = now + b.window // left behind by a forced round: a fresh window for the next
			}
			kept = append(kept, req)
			continue
		}
		if r.ctx.IsZero() {
			r.ctx = req.ctx
		}
		if !req.ctx.IsZero() {
			b.tr.Span(model.NoProc, req.ctx.Child(b.spans.next()), "gw-lane-wait", req.at, now, model.TxnID{})
		}
		r.reqs = append(r.reqs, req)
	}
	clear(ln.queue[len(kept):]) // drop the departed entries' reply channels
	ln.queue = kept
	if r == nil {
		return
	}
	for _, req := range r.reqs {
		ln.flying[req.obj]++
	}
	if ln.rounds > 0 {
		b.reg.Inc(metrics.CGwBatchOverlap, 1)
	}
	ln.rounds++
	go func() {
		b.flush(r)
		select {
		case done <- r:
		case <-b.stopCh:
		}
	}()
}

// run is the batcher's single goroutine: every arrival, completion and
// deadline updates its lane and pumps it. Lanes are independent: shard
// A's in-flight rounds never delay shard B's departures.
func (b *batcher) run() {
	defer close(b.doneCh)
	var (
		lanes = make(map[model.ShardID]*lane)
		done  = make(chan *round)
		timer = time.NewTimer(time.Hour)
	)
	timer.Stop()

	laneOf := func(s model.ShardID) *lane {
		ln := lanes[s]
		if ln == nil {
			ln = &lane{flying: make(map[model.ObjectID]int), depth: max(b.depth(s), 1)}
			if s != model.NoShard {
				ln.roundsName = fmt.Sprintf("%s.s%d", metrics.CGwBatchRounds, s)
				ln.writesName = fmt.Sprintf("%s.s%d", metrics.CGwBatchedWrites, s)
			}
			lanes[s] = ln
		}
		return ln
	}
	// rearm points the shared timer at the earliest queued deadline
	// across all lanes (a stale tick from a prior Reset only triggers a
	// harmless deadline scan).
	rearm := func() {
		earliest := time.Duration(-1)
		for _, ln := range lanes {
			if len(ln.queue) > 0 && (earliest < 0 || ln.queue[0].due < earliest) {
				earliest = ln.queue[0].due
			}
		}
		if earliest < 0 {
			timer.Stop()
		} else {
			timer.Reset(earliest - b.clock())
		}
	}

	for {
		select {
		case <-b.stopCh:
			// Queued entries never depart; their submitters fail on stopCh.
			return
		case r := <-done:
			ln := r.lane
			ln.rounds--
			for _, req := range r.reqs {
				if ln.flying[req.obj]--; ln.flying[req.obj] == 0 {
					delete(ln.flying, req.obj)
				}
			}
			b.pump(ln, false, done) // conveyor: what the round blocked rides out now
		case <-timer.C:
			now := b.clock()
			for _, ln := range lanes {
				if len(ln.queue) > 0 && ln.queue[0].due <= now {
					b.pump(ln, true, done)
				}
			}
		case req := <-b.reqCh:
			ln := laneOf(req.shard)
			ln.queue = append(ln.queue, req)
			b.pump(ln, len(ln.queue) >= b.maxSize, done)
		}
		rearm()
	}
}

// flush submits one round's shared transaction and fans the result back
// to every constituent.
func (b *batcher) flush(r *round) {
	n := r.batch.Len()
	b.reg.Inc(metrics.CGwBatchRounds, 1)
	b.reg.Inc(metrics.CGwBatchedWrites, int64(n))
	b.reg.Inc(metrics.CGwWriteTxns, 1) // the round is ONE backend 2PC pass
	b.reg.Observe(metrics.SGwBatchSize, float64(n))
	if r.lane.roundsName != "" {
		b.reg.Inc(r.lane.roundsName, 1)
		b.reg.Inc(r.lane.writesName, int64(n))
	}
	if b.tr.Enabled() {
		b.tr.Record(trace.Event{At: b.clock(), Kind: trace.EvGwBatch, Aux: int64(n)})
	}
	var rctx model.TraceCtx
	start := b.clock()
	if !r.ctx.IsZero() {
		rctx = r.ctx.Child(b.spans.next())
	}
	res, node, err := b.backend.Submit(r.batch.Txn(), rctx, r.node, time.Now().Add(requestDeadline))
	if !rctx.IsZero() {
		b.tr.Span(model.NoProc, rctx, "gw-batch-round", start, b.clock(), res.Txn)
	}
	if err != nil {
		for _, req := range r.reqs {
			req.reply <- batchReply{err: err}
		}
		return
	}
	for i, cres := range r.batch.Results(res) {
		r.reqs[i].reply <- batchReply{res: cres, node: node}
	}
}

// close stops the batcher: queued entries never depart and every waiter
// fails fast on stopCh. Rounds already in flight run to their backend
// result, which nobody is left to read.
func (b *batcher) close() {
	close(b.stopCh)
	<-b.doneCh
}
