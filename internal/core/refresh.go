package core

import (
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file implements Update-Copies-in-View (Figure 9): after joining a
// new virtual partition, bring every accessible local copy up to the most
// recent value written in any earlier partition, then unlock it (rule
// R5). The §6 log-based variant ships only the missed writes.
//
// One deliberate deviation from the paper's pseudocode: recovery reads
// are served from copies that are themselves still in the recipient's
// "locked" set. Following Figure 12 literally ("wait until l ∉ locked")
// would deadlock when all members refresh the same object concurrently —
// each would wait for the others. Serving the stored pre-refresh copy is
// safe: the requester maximizes dates over all copies in the view, which
// include (by R1+R3, majority overlap) a copy holding the most recent
// committed write. The one copy that must NOT be served is one with a
// prepared-but-undecided transactional write (§6 condition (3)); such a
// request is answered Busy and retried.

type refreshState struct {
	obj      model.ObjectID
	seq      uint64
	pending  model.ProcSet // peers not yet heard from
	busy     model.ProcSet // peers that answered Busy (retry pending)
	refusals int           // full-read refusals seen (peer not in partition yet)
	deadline time.Duration // no-response watchdog deadline
	bestVal  model.Value
	bestVer  model.Version
	logMode  bool
	// entries accumulated in log mode, applied at completion
	entries []model.Copy
	// comps gathered in mergeable mode (see mergeable.go)
	comps []wire.CompEntry
	// ctx and started trace this object's refresh as a child span of the
	// view change that caused it (zero ctx when untraced).
	ctx     model.TraceCtx
	started time.Duration
}

// maxRefreshRefusals bounds how often a not-in-partition refusal is
// retried before the view is declared wrong: per object on the full-read
// path, per peer and refused round on the batched catch-up.
const maxRefreshRefusals = 5

// extendRefreshDeadline pushes the object's no-response deadline 2δ into
// the future; it is called whenever the refresh makes progress (start,
// any response, any retry). One watchdog timer per round watches every
// deadline (onRefreshWatchdog).
func (n *Node) extendRefreshDeadline(rt net.Runtime, st *refreshState) {
	st.deadline = rt.Now() + 2*n.cfg.Delta
	n.armWatchdog(rt, st.deadline)
}

// armWatchdog arms the round's watchdog for at, unless it is armed
// already: deadlines only move later, and the sweep re-arms for the
// earliest one still open.
func (n *Node) armWatchdog(rt net.Runtime, at time.Duration) {
	if n.watchArmed {
		return
	}
	n.watchArmed = true
	rt.SetTimer(at-rt.Now(), refreshWatchdog{vp: n.refreshEpoch})
}

// startRefresh begins Update-Copies-in-View for the locked objects. In
// log mode every peer receives one CatchupReq batching the date vector
// of all objects it shares with us, and a refused or busy answer is
// asked again as one batch per peer; the full-read fallback for a
// truncated log runs per object.
func (n *Node) startRefresh(rt net.Runtime, objs []model.ObjectID) {
	n.refreshEpoch = n.curID
	n.watchArmed = false // a timer of an earlier round ignores this one
	n.retryObjs = make(map[model.ProcID][]*refreshState)
	n.peerRefusals = make(map[model.ProcID]int)
	batches := make(map[model.ProcID][]wire.ObjSince)
	var peers model.ProcSet
	for _, obj := range objs {
		n.refreshSeq++
		cur := n.Store.Get(obj)
		st := &refreshState{
			obj:     obj,
			seq:     n.refreshSeq,
			bestVal: cur.Val,
			bestVer: cur.Ver,
			logMode: n.cfg.UseLogCatchup,
		}
		if !n.vcCtx.IsZero() {
			st.ctx, st.started = n.vcCtx.Child(n.NextSpan()), rt.Now()
		}
		// R ← copies(l) ∩ lview (Figure 9 line 7); the local copy is the
		// initial best candidate, so only peers are contacted.
		st.pending = n.Cat.Copies(obj) & n.lview
		st.pending.Remove(rt.ID())
		n.refreshing[obj] = st
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshStart, VP: n.curID, Obj: obj, Aux: int64(st.pending.Len())})
		if st.pending.Len() == 0 {
			n.finishRefresh(rt, st)
			continue
		}
		for _, p := range st.pending.Sorted() {
			if st.logMode {
				batches[p] = append(batches[p], wire.ObjSince{Obj: obj, Since: cur.Ver, Seq: st.seq})
				peers.Add(p)
			} else {
				n.sendRecover(rt, st, p)
			}
		}
		n.extendRefreshDeadline(rt, st)
	}
	// Peers in ascending order so the send sequence is deterministic.
	for _, p := range peers.Sorted() {
		rt.SendCtx(p, wire.CatchupReq{VP: n.curID, Objs: batches[p]}, n.vcCtx)
	}
}

// sendRecover asks p for st's copy in full: the full-value path, and
// the log path's fallback after p's log turned out truncated.
func (n *Node) sendRecover(rt net.Runtime, st *refreshState, p model.ProcID) {
	rt.SendCtx(p, wire.RecoverRead{Obj: st.obj, VP: n.curID, Seq: st.seq}, st.ctx)
}

// abandonRefresh drops all in-progress refreshes (the processor departed
// to yet another partition; Figure 9 line 15 guards against exactly
// this). The recovery locks stay conceptually until the next join
// recomputes them; we clear them because accessibility will be
// recomputed from scratch and unassigned processors refuse all access
// anyway.
func (n *Node) abandonRefresh(rt net.Runtime) {
	if len(n.refreshing) > 0 {
		rt.Metrics().Inc(metrics.CRefreshing, -int64(len(n.refreshing)))
	}
	n.refreshing = make(map[model.ObjectID]*refreshState)
	n.Store.UnlockAllRecovery()
}

// onRecoverRead serves a full-value recovery read.
func (n *Node) onRecoverRead(rt net.Runtime, from model.ProcID, m wire.RecoverRead) {
	resp := wire.RecoverReadResp{Obj: m.Obj, Seq: m.Seq}
	switch {
	case !n.assigned || m.VP != n.curID || !n.Store.Has(m.Obj):
		// Different partition: refuse (the requester reacts as to a
		// no-response, per Figure 9 line 12).
	case n.copyBusy(m.Obj):
		resp.Busy = true
	default:
		c := n.Store.Get(m.Obj)
		resp.OK = true
		resp.Val = c.Val
		resp.Ver = c.Ver
		if n.cfg.Mergeable {
			resp.Comps = n.compsOf(m.Obj)
		}
		rt.Metrics().Inc(metrics.CRefreshReads, 1)
		rt.Metrics().Inc(metrics.CRefreshBytes, objectBytes)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshServe, VP: n.curID, Obj: m.Obj, Peer: from, Aux: objectBytes})
	}
	rt.Send(from, resp)
}

// onCatchupReq serves a batched log catch-up (§6): per object, every
// logged write newer than the requester's version, or Complete=false
// when the log was truncated past it. Every requested object is echoed
// so the requester's per-object state machine always hears an answer;
// a copy that is busy, or that we do not hold, is reported Busy and
// asked again with the peer's next batch.
func (n *Node) onCatchupReq(rt net.Runtime, from model.ProcID, m wire.CatchupReq) {
	resp := wire.CatchupResp{
		OK:   n.assigned && m.VP == n.curID,
		Objs: make([]wire.ObjDelta, 0, len(m.Objs)),
	}
	for _, o := range m.Objs {
		d := wire.ObjDelta{Obj: o.Obj, Seq: o.Seq}
		switch {
		case !resp.OK:
		case !n.Store.Has(o.Obj) || n.copyBusy(o.Obj):
			d.Busy = true
		default:
			entries, complete := n.Store.LogSince(o.Obj, o.Since)
			d.Complete = complete
			if complete {
				d.Entries = entries
				rt.Metrics().Inc(metrics.CCatchupWrites, int64(len(entries)))
				rt.Metrics().Inc(metrics.CRefreshBytes, int64(len(entries))*recordBytes)
				rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshServe, VP: n.curID, Obj: o.Obj, Peer: from, Aux: int64(len(entries)) * recordBytes})
			}
		}
		resp.Objs = append(resp.Objs, d)
	}
	rt.Send(from, resp)
}

// onCatchupResp feeds a batched reply into the per-object refresh
// state machine. Objects the peer refused (it is not in our partition
// yet) or found busy are asked again δ later in one CatchupReq; a
// truncated log falls back to a full-value read of that object from
// that peer.
func (n *Node) onCatchupResp(rt net.Runtime, from model.ProcID, m wire.CatchupResp) {
	if !n.assigned || n.curID != n.refreshEpoch {
		return
	}
	var again []*refreshState
	for _, d := range m.Objs {
		st := n.refreshFor(d.Obj, d.Seq)
		if st == nil {
			continue
		}
		switch {
		case !m.OK || d.Busy:
			st.pending.Remove(from)
			st.busy.Add(from)
			n.extendRefreshDeadline(rt, st)
			again = append(again, st)
		case !d.Complete:
			// Peer's log was truncated: fall back to a full-value read from
			// that peer only, and extend the no-response window to cover the
			// extra round trip.
			n.sendRecover(rt, st, from)
			n.extendRefreshDeadline(rt, st)
		default:
			st.entries = append(st.entries, d.Entries...)
			st.pending.Remove(from)
			if st.pending.Len() == 0 && st.busy.Len() == 0 {
				n.finishRefresh(rt, st)
			}
		}
	}
	if len(again) == 0 {
		return
	}
	if !m.OK {
		// During formation a refusal is normal — commits reach members up
		// to δ apart — so retry a few rounds before concluding the view is
		// wrong.
		n.peerRefusals[from]++
		if n.peerRefusals[from] > maxRefreshRefusals {
			rt.Logf("refresh: %v keeps refusing catch-up; creating new partition", from)
			n.CreateNewVP(rt, causeRefreshRefused)
			return
		}
	}
	if len(n.retryObjs[from]) == 0 {
		rt.SetTimer(n.cfg.Delta, catchupRetry{vp: n.refreshEpoch, peer: from})
	}
	n.retryObjs[from] = append(n.retryObjs[from], again...)
}

// onCatchupRetry asks a peer again, in one CatchupReq, for every object
// it refused or found busy since the last retry.
func (n *Node) onCatchupRetry(rt net.Runtime, k catchupRetry) {
	if !n.assigned || n.curID != k.vp || n.refreshEpoch != k.vp {
		return
	}
	sts := n.retryObjs[k.peer]
	delete(n.retryObjs, k.peer)
	var objs []wire.ObjSince
	for _, st := range sts {
		if n.refreshing[st.obj] != st || !st.busy.Has(k.peer) {
			continue
		}
		st.busy.Remove(k.peer)
		st.pending.Add(k.peer)
		objs = append(objs, wire.ObjSince{Obj: st.obj, Since: n.Store.Get(st.obj).Ver, Seq: st.seq})
		n.extendRefreshDeadline(rt, st)
	}
	if len(objs) > 0 {
		rt.SendCtx(k.peer, wire.CatchupReq{VP: n.curID, Objs: objs}, n.vcCtx)
	}
}

// copyBusy reports whether the copy must not be read by recovery yet —
// §6 condition (3): "the recover operation does not read a copy that is
// locked for writing". Because this implementation buffers writes at the
// coordinator and stages them only at prepare, a copy that is merely
// X-locked still holds its last committed value and is safe to read; the
// only dangerous state is a prepared-but-undecided staged write, whose
// outcome is unknown.
//
// Unknown, that is, to a reader the write does not go through. A write
// dated with the current partition goes to every copy in its view (rule
// R3), the requester's included — requester and responder are in that
// partition, or the read is refused — and cannot commit without the
// requester's own vote, which it casts only with its copy at the version
// the write was derived from: the committed one, served here. Such a
// copy is not busy. It must not be: a prepare that takes its locks
// itself waits at the requester for this very refresh (Figure 12, "wait
// until l ∉ locked") while its peers have already staged, and each would
// wait for the other until the vote timeout.
func (n *Node) copyBusy(obj model.ObjectID) bool {
	ver, staged := n.Store.StagedVer(obj)
	return staged && ver.Date != n.curID
}

func (n *Node) refreshFor(obj model.ObjectID, seq uint64) *refreshState {
	st, ok := n.refreshing[obj]
	if !ok || st.seq != seq {
		return nil
	}
	return st
}

func (n *Node) onRecoverReadResp(rt net.Runtime, from model.ProcID, m wire.RecoverReadResp) {
	st := n.refreshFor(m.Obj, m.Seq)
	if st == nil || !n.assigned || n.curID != n.refreshEpoch {
		return
	}
	switch {
	case m.Busy:
		st.pending.Remove(from)
		st.busy.Add(from)
		n.extendRefreshDeadline(rt, st)
		rt.SetTimer(n.cfg.Delta, refreshRetry{obj: m.Obj, seq: m.Seq, peer: from})
		return
	case !m.OK:
		// The responder is not (or not yet) in our partition. During
		// formation this is normal — commits reach members up to δ apart
		// — so retry a few times before concluding the view is wrong.
		st.refusals++
		if st.refusals > maxRefreshRefusals {
			rt.Logf("refresh %s: %v keeps refusing; creating new partition", m.Obj, from)
			n.CreateNewVP(rt, causeRefreshRefused)
			return
		}
		st.pending.Remove(from)
		st.busy.Add(from)
		n.extendRefreshDeadline(rt, st)
		rt.SetTimer(n.cfg.Delta, refreshRetry{obj: m.Obj, seq: m.Seq, peer: from})
		return
	}
	if st.bestVer.Less(m.Ver) {
		st.bestVal, st.bestVer = m.Val, m.Ver
	}
	if n.cfg.Mergeable {
		st.comps = append(st.comps, m.Comps...)
	}
	st.pending.Remove(from)
	st.busy.Remove(from)
	if st.pending.Len() == 0 && st.busy.Len() == 0 {
		n.finishRefresh(rt, st)
	}
}

func (n *Node) onRefreshRetry(rt net.Runtime, k refreshRetry) {
	st := n.refreshFor(k.obj, k.seq)
	if st == nil || !n.assigned || n.curID != n.refreshEpoch || !st.busy.Has(k.peer) {
		return
	}
	st.busy.Remove(k.peer)
	st.pending.Add(k.peer)
	n.sendRecover(rt, st, k.peer)
	n.extendRefreshDeadline(rt, st)
}

// onRefreshWatchdog is the no-response exception of Figure 9 line 12: if
// a peer still has not answered an object's refresh by its deadline, the
// view is stale — create a new partition. One sweep serves every object
// of the round, and re-arms for the earliest deadline still open.
func (n *Node) onRefreshWatchdog(rt net.Runtime, k refreshWatchdog) {
	if k.vp != n.refreshEpoch || !n.assigned || n.curID != n.refreshEpoch {
		return // a timer of an abandoned round
	}
	n.watchArmed = false
	var late *refreshState
	var next time.Duration
	for _, st := range n.refreshing {
		switch {
		case st.pending.Len() == 0:
			// Only busy peers left: their retry re-arms.
		case rt.Now() >= st.deadline:
			if late == nil || st.seq < late.seq {
				late = st
			}
		case next == 0 || st.deadline < next:
			next = st.deadline
		}
	}
	if late != nil {
		rt.Logf("refresh %s: no response from %v", late.obj, late.pending)
		n.CreateNewVP(rt, causeRefreshTimeout)
		return
	}
	if next != 0 {
		n.armWatchdog(rt, next)
	}
}

// finishRefresh installs the recovered value and unlocks the object
// (Figure 9 lines 15–17), re-admitting any deferred physical accesses.
func (n *Node) finishRefresh(rt net.Runtime, st *refreshState) {
	if st.logMode {
		// Entries from different peers may interleave; sort so a stale
		// entry never skips a newer one (Apply guards on newer-than).
		sortLogged(st.entries)
		n.Store.ApplyLog(st.obj, st.entries)
	}
	if n.cfg.Mergeable {
		// §7 mergeable-counter mode: reconcile per-writer components
		// (see mergeable.go) instead of taking the newest date.
		n.mergeGathered(rt, st.obj, st.comps)
	} else if n.Store.Get(st.obj).Ver.Less(st.bestVer) {
		// Full-value candidate: the non-log path always uses it; the log
		// path needs it too when a truncated peer log forced a full-read
		// fallback (its response lands in bestVal/bestVer).
		n.Store.Apply(st.obj, st.bestVal, st.bestVer)
	}
	delete(n.refreshing, st.obj)
	rt.Metrics().Inc(metrics.CRefreshing, -1)
	n.Store.UnlockRecovered(st.obj)
	n.RecoveryUnlocked(rt, st.obj)
	if !st.ctx.IsZero() {
		rt.Tracer().Span(rt.ID(), st.ctx, "r5-refresh", st.started, rt.Now(), model.TxnID{})
	}
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshDone, VP: n.curID, Obj: st.obj})
}

func sortLogged(entries []model.Copy) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Ver.Less(entries[j-1].Ver); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}
