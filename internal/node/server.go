package node

import (
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/locks"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file is the server side of a node: the Physical-Access task of
// Figure 12 generalized with explicit copy locks (assumption A1 demands a
// CP-serializable scheduler; the paper's Figure 12 leaves concurrency
// control implicit) and two-phase commit participation.

func (b *Base) handleLockReq(rt net.Runtime, from model.ProcID, req wire.LockReq) {
	// Rule R4 guard: only accept accesses from the same virtual
	// partition (Figure 12 lines 6 and 10: "if assigned & v=cur-id").
	if !b.Strat.AcceptAccess(rt, Epoch{VP: req.Epoch, Has: req.HasEpoch}) {
		if b.inTransition(rt) {
			// The node is between partitions (weak R4): park the request
			// until the next join decides its fate (FlushDeferred).
			b.deferred = append(b.deferred, deferredAccess{from: from, req: req})
			return
		}
		b.refuse(rt, deferredAccess{from: from, req: req, ctx: rt.TraceCtx()})
		return
	}
	if !b.Store.Has(req.Obj) {
		b.refuse(rt, deferredAccess{from: from, req: req, ctx: rt.TraceCtx()})
		return
	}
	// Rule R5 guard: "wait until l ∉ locked" (Figure 12 lines 5 and 9).
	if b.Store.RecoveryLocked(req.Obj) {
		b.deferred = append(b.deferred, deferredAccess{from: from, req: req})
		return
	}
	b.admitLock(rt, from, req)
}

// refuse turns away a physical access of another partition: a lock
// request, or (prep set) the prepare that carried it. The answer echoes
// the epoch the access came with, so its coordinator can tell it from a
// stale one.
func (b *Base) refuse(rt net.Runtime, a deferredAccess) {
	if a.prep != nil {
		b.vote(rt, a.from, a.prep, false, wire.NoWrongEpoch, a.ctx)
		return
	}
	rt.SendCtx(a.from, wire.LockResp{Txn: a.req.Txn, Obj: a.req.Obj, Status: wire.LockWrongEpoch,
		Epoch: a.req.Epoch, HasEpoch: a.req.HasEpoch}, a.ctx)
}

func (b *Base) admitLock(rt net.Runtime, from model.ProcID, req wire.LockReq) {
	acquire := b.Locks.Acquire
	if req.Patient {
		acquire = b.Locks.AcquirePatient
	}
	switch acquire(req.Obj, req.Txn, req.Mode) {
	case locks.Granted:
		b.touch(rt, req.Txn)
		b.respondGranted(rt, from, req, rt.TraceCtx())
	case locks.Queued:
		b.touch(rt, req.Txn)
		b.waiting[lockKey{req.Txn, req.Obj}] = pendingLock{
			deferredAccess: deferredAccess{from: from, req: req, ctx: rt.TraceCtx()}, queuedAt: rt.Now(),
		}
		b.nudge(rt, req.Obj)
	case locks.Died:
		rt.Send(from, wire.LockResp{Txn: req.Txn, Obj: req.Obj, Status: wire.LockDenied,
			Epoch: req.Epoch, HasEpoch: req.HasEpoch})
		b.nudge(rt, req.Obj)
	}
}

// nudge is called when a lock request on obj waits or dies. If what it
// ran into is a transaction prepared here whose vote has left, that
// transaction may well be committed and its Decide sitting behind a lazy
// flush at its coordinator: ask, as the lease sweep would much later. A
// coordinator still collecting votes stays silent.
func (b *Base) nudge(rt net.Runtime, obj model.ObjectID) {
	holder, staged := b.Store.StagedBy(obj)
	if !staged || b.coordinates(holder) {
		return
	}
	if pt := b.prepared[holder]; pt != nil && pt.voted {
		rt.Send(holder.P, wire.DecideQuery{Txn: holder, From: b.ID})
	}
}

// respondGranted answers a granted lock request. ctx is the trace
// context the request arrived with — passed explicitly because a grant
// unblocked by a release runs under the *releaser's* ambient context,
// and the response must stay parented under the requester's span.
func (b *Base) respondGranted(rt net.Runtime, to model.ProcID, req wire.LockReq, ctx model.TraceCtx) {
	c := b.Store.Get(req.Obj)
	if req.Mode == model.LockShared {
		rt.Metrics().Inc(metrics.CPhysRead, 1)
	}
	rt.SendCtx(to, wire.LockResp{
		Txn:        req.Txn,
		Obj:        req.Obj,
		Status:     wire.LockGranted,
		Val:        c.Val,
		Ver:        c.Ver,
		Epoch:      req.Epoch,
		HasEpoch:   req.HasEpoch,
		HasMissing: b.Store.HasMissing(req.Obj),
	}, ctx)
}

// processGrants answers lock requests that a release unblocked. The
// admission guard is re-checked: the partition may have changed while the
// request waited.
func (b *Base) processGrants(rt net.Runtime, grants []locks.Grant) {
	for len(grants) > 0 {
		g := grants[0]
		grants = grants[1:]
		key := lockKey{g.Txn, g.Obj}
		p, ok := b.waiting[key]
		if !ok {
			// Waiter vanished (aborted and released): free the lock.
			grants = append(grants, b.Locks.Release(g.Obj, g.Txn)...)
			continue
		}
		delete(b.waiting, key)
		if !b.Strat.AcceptAccess(rt, Epoch{VP: p.req.Epoch, Has: p.req.HasEpoch}) {
			grants = append(grants, b.Locks.Release(g.Obj, g.Txn)...)
			b.refuse(rt, p.deferredAccess)
			continue
		}
		b.touch(rt, g.Txn)
		if !p.ctx.IsZero() {
			rt.Tracer().Span(b.ID, p.ctx.Child(b.NextSpan()), "part-lock-wait", p.queuedAt, rt.Now(), g.Txn)
		}
		if p.prep != nil {
			b.admitPrepare(rt, p.from, p.prep, p.ctx) // on to its next lock, or to staging
			continue
		}
		b.respondGranted(rt, p.from, p.req, p.ctx)
	}
}

// inTransition reports whether the strategy is between partitions and
// wants incoming accesses parked rather than refused (§6 weak R4).
func (b *Base) inTransition(rt net.Runtime) bool {
	ta, ok := b.Strat.(TransitionAware)
	return ok && ta.InTransition(rt)
}

// FlushDeferred re-processes every parked physical access. The concrete
// node calls it after joining a new partition: requests for the new
// epoch are admitted, stale ones refused, recovery-locked ones re-parked.
func (b *Base) FlushDeferred(rt net.Runtime) {
	pending := b.deferred
	b.deferred = nil
	for _, d := range pending {
		b.readmit(rt, d)
	}
}

func (b *Base) readmit(rt net.Runtime, d deferredAccess) {
	if d.prep != nil {
		b.admitPrepare(rt, d.from, d.prep, d.ctx)
		return
	}
	b.handleLockReq(rt, d.from, d.req)
}

// RecoveryUnlocked re-admits physical accesses that were deferred while
// obj was being refreshed (rule R5). The concrete node calls it after
// Update-Copies-in-View unlocks the object.
func (b *Base) RecoveryUnlocked(rt net.Runtime, obj model.ObjectID) {
	kept := b.deferred[:0]
	var admit []deferredAccess
	for _, d := range b.deferred {
		if d.req.Obj == obj {
			admit = append(admit, d)
		} else {
			kept = append(kept, d)
		}
	}
	b.deferred = kept
	for _, d := range admit {
		b.readmit(rt, d)
	}
}

func (b *Base) handlePrepare(rt net.Runtime, from model.ProcID, p wire.Prepare) {
	b.admitPrepare(rt, from, &p, rt.TraceCtx())
}

// vote answers prepare p, echoing its epoch.
func (b *Base) vote(rt net.Runtime, to model.ProcID, p *wire.Prepare, ok bool, why wire.NoVote, ctx model.TraceCtx) {
	rt.SendCtx(to, wire.Vote{Txn: p.Txn, From: b.ID, OK: ok, Why: why,
		Epoch: p.Epoch, HasEpoch: p.HasEpoch}, ctx)
}

// lockReqOf is the lock request a prepare stands for while it waits on
// obj: what the waiting and deferred queues file it under.
func lockReqOf(p *wire.Prepare, obj model.ObjectID) wire.LockReq {
	return wire.LockReq{Txn: p.Txn, Obj: obj, Mode: model.LockExclusive, Epoch: p.Epoch, HasEpoch: p.HasEpoch}
}

// admitPrepare runs a prepare from the top: admission as for a lock
// request (rule R4, rule R5), the exclusive locks the coordinator left to
// it, the checks, then staging, the journal and the vote. Where a lock
// request would wait the whole prepare waits in the same queue, and is
// run again, from the top, when the wait ends; ctx is the trace context
// it arrived with.
func (b *Base) admitPrepare(rt net.Runtime, from model.ProcID, p *wire.Prepare, ctx model.TraceCtx) {
	if pt, dup := b.prepared[p.Txn]; dup {
		if pt.voted {
			b.vote(rt, from, p, true, 0, ctx) // retransmitted prepare, or a restarted coordinator asking again
		}
		return // else the pending barrier will vote
	}
	if p.Recollect {
		// No vote on record: none was cast, or the outcome was applied and
		// forgotten — which only follows a decision durable at the
		// coordinator, and then it would not be asking.
		b.vote(rt, from, p, false, wire.NoOther, ctx)
		return
	}
	waitingFor := func(obj model.ObjectID) deferredAccess {
		return deferredAccess{from: from, req: lockReqOf(p, obj), prep: p, ctx: ctx}
	}
	park := func(obj model.ObjectID) { b.deferred = append(b.deferred, waitingFor(obj)) }
	if !b.Strat.AcceptAccess(rt, Epoch{VP: p.Epoch, Has: p.HasEpoch}) {
		if b.inTransition(rt) && len(p.Writes) > 0 {
			park(p.Writes[0].Obj)
			return
		}
		b.vote(rt, from, p, false, wire.NoWrongEpoch, ctx)
		return
	}
	for _, w := range p.Writes {
		if !b.Store.Has(w.Obj) {
			b.vote(rt, from, p, false, wire.NoOther, ctx)
			return
		}
	}
	for _, w := range p.Writes {
		if w.Lock && b.Store.RecoveryLocked(w.Obj) {
			park(w.Obj)
			return
		}
	}
	for _, w := range p.Writes {
		if !w.Lock {
			continue
		}
		switch b.Locks.Acquire(w.Obj, p.Txn, model.LockExclusive) {
		case locks.Granted:
			b.touch(rt, p.Txn)
		case locks.Queued:
			b.touch(rt, p.Txn)
			b.waiting[lockKey{p.Txn, w.Obj}] = pendingLock{deferredAccess: waitingFor(w.Obj), queuedAt: rt.Now()}
			b.nudge(rt, w.Obj)
			return
		case locks.Died:
			// Whatever the prepare holds by now goes with the abort its
			// coordinator decides on this vote.
			b.vote(rt, from, p, false, wire.NoWaitDie, ctx)
			b.nudge(rt, w.Obj)
			return
		}
	}
	for _, w := range p.Writes {
		// The transaction must hold an exclusive lock on every copy it
		// wants to write here; a partition change released them (rule R4).
		if !b.Locks.Holds(w.Obj, p.Txn, model.LockExclusive) {
			b.vote(rt, from, p, false, wire.NoOther, ctx)
			return
		}
		// A lock taken just now says nothing about what the copy held
		// before: the new version was derived from Base, so Base it must be.
		if w.Lock && b.Store.Get(w.Obj).Ver != w.Base {
			b.vote(rt, from, p, false, wire.NoBaseVersion, ctx)
			return
		}
	}
	traced := !ctx.IsZero() && len(p.Writes) > 0
	stageStart := rt.Now()
	for _, w := range p.Writes {
		if w.Delta {
			b.Store.StageDelta(w.Obj, p.Txn, w.Val, w.Ver)
		} else {
			b.Store.Stage(w.Obj, p.Txn, w.Val, w.Ver)
		}
	}
	if traced {
		rt.Tracer().Span(b.ID, ctx.Child(b.NextSpan()), "part-stage", stageStart, rt.Now(), p.Txn)
	}
	pt := &preparedTxn{coord: from, writes: p.Writes}
	b.prepared[p.Txn] = pt
	b.touch(rt, p.Txn)
	yes := func(rt net.Runtime) {
		pt.voted = true
		b.vote(rt, from, p, true, 0, ctx)
	}
	jStart := rt.Now()
	for _, w := range p.Writes {
		b.Journal.Stage(p.Txn, w.Obj, durable.StagedWrite{
			Val: w.Val, Ver: w.Ver, Delta: w.Delta, MissedBy: w.MissedBy,
		})
	}
	if b.coordinates(p.Txn) {
		yes(rt)
		return
	}
	b.Promise(rt, true, func(rt net.Runtime) {
		if b.prepared[p.Txn] != pt {
			return // a decision overtook the vote
		}
		if traced {
			// The wait for the stage records' fsync, split from part-stage
			// so the critical path can tell the store from the disk.
			rt.Tracer().Span(b.ID, ctx.Child(b.NextSpan()), "part-journal", jStart, rt.Now(), p.Txn)
		}
		yes(rt)
	})
}

// coordinates reports whether this processor coordinates txn, i.e. the
// participant-side promises it makes about txn never leave the
// processor (and, sharded, its one shared journal). Such promises need
// no barrier of their own: the stage records sit in the one journal ahead
// of the coordinator's vote record, whose barrier covers them, and the
// drop-stage and decide-done records behind its decision record (DESIGN
// §12).
func (b *Base) coordinates(txn model.TxnID) bool { return txn.P == b.ID }

func (b *Base) handleDecide(rt net.Runtime, from model.ProcID, d wire.Decide) {
	if st, ok := b.prepared[d.Txn]; ok {
		if d.Commit {
			for _, w := range st.writes {
				if b.Store.CommitStaged(w.Obj, d.Txn) {
					rt.Metrics().Inc(metrics.CPhysWrite, 1)
				}
				if len(w.MissedBy) > 0 {
					b.Store.MarkMissing(w.Obj, w.MissedBy)
				} else {
					b.Store.ClearMissing(w.Obj)
				}
			}
		} else {
			b.Store.DropAllStagedBy(d.Txn)
		}
		b.Journal.DropStage(d.Txn, "")
		delete(b.prepared, d.Txn)
		b.releaseTxnLocally(rt, d.Txn)
	} else if !d.Commit {
		// Abort for a transaction never prepared here: free its locks.
		b.Store.DropAllStagedBy(d.Txn)
		b.releaseTxnLocally(rt, d.Txn)
	}
	ctx := rt.TraceCtx()
	ack := func(rt net.Runtime) {
		rt.SendCtx(from, wire.DecideAck{Txn: d.Txn, From: b.ID}, ctx)
	}
	if b.coordinates(d.Txn) {
		ack(rt) // leaves nothing: see coordinates
		return
	}
	// The ack alone waits for the disk — lazily, the coordinator has
	// already answered its client. It licenses the coordinator to forget
	// the decision, so the outcome recorded above must be durable first;
	// that holds for the ack of a retransmitted Decide as well, which
	// finds nothing prepared while the first ack may still be waiting.
	b.Promise(rt, false, ack)
}

func (b *Base) handleRelease(rt net.Runtime, from model.ProcID, rel wire.Release) {
	if _, isPrepared := b.prepared[rel.Txn]; isPrepared {
		// A Release must never revoke a prepared transaction; only a
		// Decide may. (Can happen if a stale Release is retransmitted.)
		return
	}
	if rel.Obj != "" {
		// Scoped release: one object only (straggler grant cleanup).
		delete(b.waiting, lockKey{rel.Txn, rel.Obj})
		kept := b.deferred[:0]
		for _, d := range b.deferred {
			if d.req.Txn != rel.Txn || d.req.Obj != rel.Obj {
				kept = append(kept, d)
			}
		}
		b.deferred = kept
		b.Store.DropStaged(rel.Obj, rel.Txn)
		b.processGrants(rt, b.Locks.Release(rel.Obj, rel.Txn))
		return
	}
	b.Store.DropAllStagedBy(rel.Txn)
	b.releaseTxnLocally(rt, rel.Txn)
}

func (b *Base) releaseTxnLocally(rt net.Runtime, txn model.TxnID) {
	for k := range b.waiting {
		if k.txn == txn {
			delete(b.waiting, k)
		}
	}
	kept := b.deferred[:0]
	for _, d := range b.deferred {
		if d.req.Txn != txn {
			kept = append(kept, d)
		}
	}
	b.deferred = kept
	delete(b.activity, txn)
	b.processGrants(rt, b.Locks.ReleaseAll(txn))
}

// touch refreshes a transaction's lock lease.
func (b *Base) touch(rt net.Runtime, txn model.TxnID) {
	b.activity[txn] = int64(rt.Now())
}

// sweepLeases releases the locks of transactions that have shown no
// activity for several lock timeouts and are not prepared. A coordinator
// that lost its Release message (or died) would otherwise leak locks
// forever. This is safe: by then the coordinator has certainly aborted
// the transaction (its own operation timeout is LockTimeout), and a
// Prepare arriving after the sweep finds the locks gone and votes no.
func (b *Base) sweepLeases(rt net.Runtime) {
	cutoff := int64(rt.Now()) - int64(3*b.Cfg.LockTimeout)
	for _, txn := range b.Locks.Txns() {
		if _, isPrepared := b.prepared[txn]; isPrepared {
			// A prepared transaction may only be resolved by its
			// coordinator, so its locks are never swept. But one that has
			// sat past the lease has lost its coordinator's retransmission
			// stream — the coordinator halted at a failed decide barrier,
			// or restarted without a durable Decide record and cannot know
			// to resume. Ask it directly; a coordinator with no record
			// answers abort (presumed abort, see handleDecideQuery), which
			// unblocks these locks. Transactions resurrected by
			// RestoreDurable have no activity entry and query on the first
			// sweep after restart.
			if last, ok := b.activity[txn]; !ok || last < cutoff {
				rt.Send(txn.P, wire.DecideQuery{Txn: txn, From: b.ID})
			}
			continue
		}
		if _, isLocal := b.active[txn]; isLocal {
			continue // coordinated here; its own timers manage it
		}
		if last, ok := b.activity[txn]; !ok || last < cutoff {
			b.Store.DropAllStagedBy(txn)
			b.releaseTxnLocally(rt, txn)
		}
	}
}
