package gateway

import (
	"fmt"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// batcher implements group commit: concurrent increments are coalesced
// into ONE shared transaction round, so one pass of locking and
// two-phase commit carries many logical writes. Increments on one
// object merge by summing their deltas (read o; write o := o + Σδ runs
// all of them back to back), and increments on distinct objects ride
// side by side, so a forming round never refuses an entry. Under
// contention this is the difference between N serialized lock/2PC
// rounds (each txn waiting out or aborting its predecessors under
// wait-die) and one round per conveyor slot.
//
// The protocol orders only CONFLICTING accesses (strict two-phase
// locking per copy), so the conveyor does too. One mutex guards every
// lane's queue, and one departure rule (batcher.pump) runs under it: an
// entry leaves in a round as soon as no in-flight round of its lane
// touches its object and the lane is below its depth bound. A round
// runs on the request goroutine of its first constituent; the batcher
// owns none. An increment of an idle object therefore departs the
// moment it arrives, as its own round on its own goroutine, however
// many unrelated rounds are in flight; one of a busy object — or one
// that finds the lane full — queues, and everything the next completion
// unblocks rides out together as one round. Rounds on a hot object thus
// still size themselves to the natural commit latency.
//
// The window is only an upper bound on how long an entry may queue
// (covering slow in-flight rounds), and maxSize on how many may: past
// either the queue departs regardless of what is in flight.
//
// Sharded deployments run one conveyor LANE per shard: every round is
// single-shard (so the backend transaction never needs cross-shard
// two-phase commit), each lane keeps its own queue and in-flight set,
// and one timer is armed to the earliest queued deadline. The unsharded
// gateway degenerates to a single model.NoShard lane.
type batcher struct {
	g       *Gateway // backend, tags, spans, metrics, tracer, clock, lane depth
	window  time.Duration
	maxSize int

	mu     sync.Mutex
	lanes  map[model.ShardID]*lane
	timer  *time.Timer // fires at the earliest queued deadline (expire)
	closed bool
}

// batchReq is one increment awaiting its round.
type batchReq struct {
	obj   model.ObjectID
	delta int64
	ctx   model.TraceCtx // trace context of the constituent (zero if unsampled)
	node  model.ProcID   // session-preferred node of the FIRST constituent routes the round
	at    time.Duration  // submit time on the gateway's clock
	due   time.Duration  // latest departure: at + window
	reply chan batchReply
}

// batchReply is the round a queued entry is to run (once, its first
// constituent's), or the entry's own result.
type batchReply struct {
	run  *round
	res  wire.ClientResult
	node model.ProcID // node that served the shared round
	err  error
}

func newBatcher(g *Gateway, window time.Duration, maxSize int) *batcher {
	b := &batcher{g: g, window: window, maxSize: maxSize, lanes: make(map[model.ShardID]*lane)}
	b.timer = time.AfterFunc(time.Hour, b.expire)
	b.timer.Stop()
	return b
}

// submit queues one increment and waits for its own result out of the
// shared round, reporting which node served it. shard selects the
// conveyor lane the increment coalesces in (model.NoShard when the
// deployment is unsharded).
func (b *batcher) submit(obj model.ObjectID, delta int64, ctx model.TraceCtx, node model.ProcID, shard model.ShardID) (wire.ClientResult, model.ProcID, error) {
	req, ok := b.enqueue(obj, delta, ctx, node, shard)
	if !ok {
		return wire.ClientResult{}, model.NoProc, errGatewayClosed
	}
	return b.wait(req)
}

// enqueue stamps one increment, queues it in shard's lane and pumps the
// lane; false once the batcher is closed.
func (b *batcher) enqueue(obj model.ObjectID, delta int64, ctx model.TraceCtx, node model.ProcID, shard model.ShardID) (batchReq, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.g.clock()
	req := batchReq{obj: obj, delta: delta, ctx: ctx, node: node, at: now, due: now + b.window,
		reply: make(chan batchReply, 1)}
	if b.closed {
		return req, false
	}
	ln := b.lanes[shard]
	if ln == nil {
		ln = &lane{flying: make(map[model.ObjectID]int), depth: max(b.g.laneDepth(shard), 1)}
		if shard != model.NoShard {
			ln.roundsName = fmt.Sprintf("%s.s%d", metrics.CGwBatchRounds, shard)
			ln.writesName = fmt.Sprintf("%s.s%d", metrics.CGwBatchedWrites, shard)
		}
		b.lanes[shard] = ln
	}
	ln.queue = append(ln.queue, req)
	b.pump(ln, len(ln.queue) >= b.maxSize)
	b.rearm()
	return req, true
}

// wait blocks until req's result arrives. When req is the first
// constituent of its round, the round arrives first: wait runs it,
// retires it and then takes its own result like every constituent.
func (b *batcher) wait(req batchReq) (wire.ClientResult, model.ProcID, error) {
	rep := <-req.reply
	if r := rep.run; r != nil {
		b.flush(r)
		b.retire(r)
		rep = <-req.reply
	}
	return rep.res, rep.node, rep.err
}

// round is one departed group-commit round.
type round struct {
	objs   []model.ObjectID // written objects, in first-touch order
	deltas []int64          // summed delta per object, beside objs
	reqs   []batchReq       // constituents, in arrival order
	lane   *lane
	node   model.ProcID
	// ctx is the trace context of the first SAMPLED constituent; the
	// round's shared backend transaction rides under it as a
	// gw-batch-round child span.
	ctx model.TraceCtx
}

// add merges one constituent into the round.
func (r *round) add(req batchReq) {
	r.reqs = append(r.reqs, req)
	if r.ctx.IsZero() {
		r.ctx = req.ctx
	}
	for i, o := range r.objs {
		if o == req.obj {
			r.deltas[i] += req.delta
			return
		}
	}
	r.objs = append(r.objs, req.obj)
	r.deltas = append(r.deltas, req.delta)
}

// txn is the round's shared transaction: per object, one read and one
// write of the read value plus the summed delta.
func (r *round) txn(tag uint64) wire.ClientTxn {
	ops := make([]wire.Op, 0, 2*len(r.objs))
	for i, o := range r.objs {
		ops = append(ops, wire.IncrementOps(o, r.deltas[i])...)
	}
	return wire.ClientTxn{Tag: tag, Ops: ops}
}

// result slices constituent req's result out of the shared one: the
// round's fate and, on commit, the committed value and version of req's
// object, which is the mark its session needs for read-your-writes.
func (r *round) result(res wire.ClientResult, req batchReq) wire.ClientResult {
	out := wire.ClientResult{Txn: res.Txn, Committed: res.Committed, Denied: res.Denied, Reason: res.Reason}
	if res.Committed {
		for _, w := range res.Writes {
			if w.Obj == req.obj {
				out.Writes = []wire.ObjVal{w}
				break
			}
		}
	}
	return out
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

// pump is the conveyor's one departure rule; callers hold b.mu. It
// forms at most one round from the queued entries that may leave now —
// object untouched by any in-flight round, lane below its depth bound —
// and hands it to its first constituent to run. force (window expiry,
// queue at maxSize) waives both conditions, so a forced round takes the
// whole queue.
func (b *batcher) pump(ln *lane, force bool) {
	if len(ln.queue) == 0 || (!force && ln.rounds >= ln.depth) {
		return
	}
	now := b.g.clock()
	var r *round
	kept := ln.queue[:0]
	for _, req := range ln.queue {
		if !force && ln.flying[req.obj] > 0 {
			kept = append(kept, req)
			continue
		}
		if r == nil {
			r = &round{lane: ln, node: req.node}
		}
		if !req.ctx.IsZero() {
			b.g.tr.Span(model.NoProc, req.ctx.Child(b.g.spans.next()), "gw-lane-wait", req.at, now, model.TxnID{})
		}
		r.add(req)
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
		b.g.reg.Inc(metrics.CGwBatchOverlap, 1)
	}
	ln.rounds++
	r.reqs[0].reply <- batchReply{run: r} // buffered and empty: the entry was queued
}

// retire takes a finished round out of its lane and pumps the lane:
// what the round held back rides out now. Lanes are independent: shard
// A's in-flight rounds never delay shard B's departures.
func (b *batcher) retire(r *round) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ln := r.lane
	ln.rounds--
	for _, req := range r.reqs {
		if ln.flying[req.obj]--; ln.flying[req.obj] == 0 {
			delete(ln.flying, req.obj)
		}
	}
	b.pump(ln, false)
	b.rearm()
}

// expire forces out every lane whose oldest entry is past its window.
func (b *batcher) expire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.g.clock()
	for _, ln := range b.lanes {
		if len(ln.queue) > 0 && ln.queue[0].due <= now {
			b.pump(ln, true)
		}
	}
	b.rearm()
}

// rearm points the timer at the earliest queued deadline across all
// lanes; callers hold b.mu. A stale firing only triggers a harmless
// deadline scan.
func (b *batcher) rearm() {
	earliest := time.Duration(-1)
	for _, ln := range b.lanes {
		if len(ln.queue) > 0 && (earliest < 0 || ln.queue[0].due < earliest) {
			earliest = ln.queue[0].due
		}
	}
	if earliest < 0 {
		b.timer.Stop()
	} else {
		b.timer.Reset(earliest - b.g.clock())
	}
}

// flush submits one round's shared transaction and fans the result back
// to every constituent.
func (b *batcher) flush(r *round) {
	g, n := b.g, len(r.reqs)
	g.reg.Inc(metrics.CGwBatchRounds, 1)
	g.reg.Inc(metrics.CGwBatchedWrites, int64(n))
	g.reg.Inc(metrics.CGwWriteTxns, 1) // the round is ONE backend 2PC pass
	g.reg.Observe(metrics.SGwBatchSize, float64(n))
	if r.lane.roundsName != "" {
		g.reg.Inc(r.lane.roundsName, 1)
		g.reg.Inc(r.lane.writesName, int64(n))
	}
	if g.tr.Enabled() {
		g.tr.Record(trace.Event{At: g.clock(), Kind: trace.EvGwBatch, Aux: int64(n)})
	}
	var rctx model.TraceCtx
	start := g.clock()
	if !r.ctx.IsZero() {
		rctx = r.ctx.Child(g.spans.next())
	}
	res, node, err := g.backend.Submit(r.txn(g.tags.next()), rctx, r.node, time.Now().Add(requestDeadline))
	if !rctx.IsZero() {
		g.tr.Span(model.NoProc, rctx, "gw-batch-round", start, g.clock(), res.Txn)
	}
	for _, req := range r.reqs {
		req.reply <- batchReply{res: r.result(res, req), node: node, err: err}
	}
}

// close fails every queued entry with errGatewayClosed and refuses new
// ones. A round already in flight runs to its backend result, which
// reaches each of its constituents as usual.
func (b *batcher) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.timer.Stop()
	for _, ln := range b.lanes {
		for _, req := range ln.queue {
			req.reply <- batchReply{err: errGatewayClosed}
		}
		ln.queue = nil
	}
}
