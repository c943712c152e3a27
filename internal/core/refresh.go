package core

import (
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/store"
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
	refusals int           // !OK responses seen (peer not in partition yet)
	deadline time.Duration // no-response watchdog deadline
	bestVal  model.Value
	bestVer  model.Version
	logMode  bool
	// entries accumulated in log mode, applied at completion
	entries []wire.LogEntry
	// comps gathered in mergeable mode (see mergeable.go)
	comps []wire.CompEntry
	// ctx and started trace this object's refresh as a child span of the
	// view change that caused it (zero ctx when untraced).
	ctx     model.TraceCtx
	started time.Duration
}

// maxRefreshRefusals bounds how often a not-in-partition refusal is
// retried before the view is declared wrong.
const maxRefreshRefusals = 5

// extendRefreshDeadline pushes the no-response watchdog 2δ into the
// future; it is called whenever the refresh makes progress (start, any
// response, any retry). The watchdog timer re-arms itself while the
// deadline keeps moving.
func (n *Node) extendRefreshDeadline(rt net.Runtime, st *refreshState) {
	st.deadline = rt.Now() + 2*n.cfg.Delta
}

// startRefresh begins Update-Copies-in-View for the locked objects. In
// log mode every peer receives one CatchupReq batching the date vector
// of all objects it shares with us, instead of one RecoverLog per
// (object, peer) pair; retries and fallbacks still run per object.
func (n *Node) startRefresh(rt net.Runtime, objs []model.ObjectID) {
	n.refreshEpoch = n.curID
	batches := make(map[model.ProcID][]wire.ObjSince)
	for _, obj := range objs {
		n.refreshSeq++
		cur := n.Store.Get(obj)
		st := &refreshState{
			obj:     obj,
			seq:     n.refreshSeq,
			pending: model.NewProcSet(),
			busy:    model.NewProcSet(),
			bestVal: cur.Val,
			bestVer: cur.Ver,
			logMode: n.cfg.UseLogCatchup,
		}
		if !n.vcCtx.IsZero() {
			st.ctx, st.started = n.vcCtx.Child(n.NextSpan()), rt.Now()
		}
		// R ← copies(l) ∩ lview (Figure 9 line 7); the local copy is the
		// initial best candidate, so only peers are contacted.
		for _, p := range n.Cat.Copies(obj).Intersect(n.lview).Sorted() {
			if p != rt.ID() {
				st.pending.Add(p)
			}
		}
		n.refreshing[obj] = st
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshStart, VP: n.curID, Obj: obj, Aux: int64(st.pending.Len())})
		if st.pending.Len() == 0 {
			n.finishRefresh(rt, st)
			continue
		}
		for _, p := range st.pending.Sorted() {
			if st.logMode {
				batches[p] = append(batches[p], wire.ObjSince{Obj: obj, Since: cur.Ver, Seq: st.seq})
			} else {
				n.sendRecover(rt, st, p)
			}
		}
		n.extendRefreshDeadline(rt, st)
		rt.SetTimer(2*n.cfg.Delta, refreshWindow{obj: obj, seq: st.seq})
	}
	// Peers in sorted order so the send sequence is deterministic.
	peers := make([]model.ProcID, 0, len(batches))
	for p := range batches {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		rt.SendCtx(p, wire.CatchupReq{VP: n.curID, Objs: batches[p]}, n.vcCtx)
	}
}

func (n *Node) sendRecover(rt net.Runtime, st *refreshState, p model.ProcID) {
	if st.logMode {
		rt.SendCtx(p, wire.RecoverLog{Obj: st.obj, Since: n.Store.Get(st.obj).Ver, VP: n.curID, Seq: st.seq}, st.ctx)
	} else {
		rt.SendCtx(p, wire.RecoverRead{Obj: st.obj, VP: n.curID, Seq: st.seq}, st.ctx)
	}
}

// abandonRefresh drops all in-progress refreshes (the processor departed
// to yet another partition; Figure 9 line 15 guards against exactly
// this). The recovery locks stay conceptually until the next join
// recomputes them; we clear them because accessibility will be
// recomputed from scratch and unassigned processors refuse all access
// anyway.
func (n *Node) abandonRefresh(rt net.Runtime) {
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
		rt.Metrics().Inc(metrics.CRefreshBytes, n.cfg.ObjectBytes)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshServe, VP: n.curID, Obj: m.Obj, Peer: from, Aux: n.cfg.ObjectBytes})
	}
	rt.Send(from, resp)
}

// onRecoverLog serves a log-based recovery read (§6).
func (n *Node) onRecoverLog(rt net.Runtime, from model.ProcID, m wire.RecoverLog) {
	resp := wire.RecoverLogResp{Obj: m.Obj, Seq: m.Seq}
	switch {
	case !n.assigned || m.VP != n.curID || !n.Store.Has(m.Obj):
	case n.copyBusy(m.Obj):
		resp.Busy = true
	default:
		resp.OK = true
		entries, complete := n.Store.LogSince(m.Obj, m.Since)
		resp.Complete = complete
		if complete {
			for _, e := range entries {
				resp.Entries = append(resp.Entries, wire.LogEntry{Val: e.Val, Ver: e.Ver})
			}
			rt.Metrics().Inc(metrics.CCatchupWrites, int64(len(entries)))
			rt.Metrics().Inc(metrics.CRefreshBytes, int64(len(entries))*n.cfg.RecordBytes)
			rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshServe, VP: n.curID, Obj: m.Obj, Peer: from, Aux: int64(len(entries)) * n.cfg.RecordBytes})
		}
	}
	rt.Send(from, resp)
}

// onCatchupReq serves a batched log catch-up: per object the same
// decision as onRecoverLog, folded into one reply frame. Every
// requested object is echoed so the requester's per-object state
// machine always hears an answer; an object we hold no copy of is
// reported Busy, which routes the requester onto the single-object
// retry path (where the refusal is counted properly).
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
				for _, e := range entries {
					d.Entries = append(d.Entries, wire.LogEntry{Val: e.Val, Ver: e.Ver})
				}
				rt.Metrics().Inc(metrics.CCatchupWrites, int64(len(entries)))
				rt.Metrics().Inc(metrics.CRefreshBytes, int64(len(entries))*n.cfg.RecordBytes)
				rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshServe, VP: n.curID, Obj: o.Obj, Peer: from, Aux: int64(len(entries)) * n.cfg.RecordBytes})
			}
		}
		resp.Objs = append(resp.Objs, d)
	}
	rt.Send(from, resp)
}

// onCatchupResp demultiplexes a batched reply into the per-object
// refresh state machine: each delta behaves exactly like a
// single-object RecoverLogResp (refusal counting, busy retry, and the
// truncation fallback to a full-value read included).
func (n *Node) onCatchupResp(rt net.Runtime, from model.ProcID, m wire.CatchupResp) {
	for _, d := range m.Objs {
		n.onRecoverLogResp(rt, from, wire.RecoverLogResp{
			Obj: d.Obj, Seq: d.Seq, OK: m.OK, Busy: d.Busy,
			Complete: d.Complete, Entries: d.Entries,
		})
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

func (n *Node) onRecoverLogResp(rt net.Runtime, from model.ProcID, m wire.RecoverLogResp) {
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
	case !m.Complete:
		// Peer's log was truncated: fall back to a full-value read from
		// that peer only, and extend the no-response window to cover the
		// extra round trip.
		st.pending.Add(from)
		st.busy.Remove(from)
		rt.SendCtx(from, wire.RecoverRead{Obj: st.obj, VP: n.curID, Seq: st.seq}, st.ctx)
		n.extendRefreshDeadline(rt, st)
		rt.SetTimer(2*n.cfg.Delta, refreshWindow{obj: st.obj, seq: st.seq})
		return
	}
	st.entries = append(st.entries, m.Entries...)
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
	rt.SetTimer(2*n.cfg.Delta, refreshWindow{obj: k.obj, seq: k.seq})
}

// onRefreshWindow is the no-response exception of Figure 9 line 12: if a
// peer still has not answered after the window, the view is stale —
// create a new partition.
func (n *Node) onRefreshWindow(rt net.Runtime, k refreshWindow) {
	st := n.refreshFor(k.obj, k.seq)
	if st == nil || !n.assigned || n.curID != n.refreshEpoch {
		return
	}
	if rt.Now() < st.deadline {
		// The deadline moved (a retry or fallback is in flight); this
		// timer is stale. The re-armed timer will check again.
		return
	}
	if st.pending.Len() > 0 {
		rt.Logf("refresh %s: no response from %v", k.obj, st.pending)
		n.CreateNewVP(rt, causeRefreshTimeout)
	}
}

// finishRefresh installs the recovered value and unlocks the object
// (Figure 9 lines 15–17), re-admitting any deferred physical accesses.
func (n *Node) finishRefresh(rt net.Runtime, st *refreshState) {
	if st.logMode {
		converted := make([]store.LoggedWrite, len(st.entries))
		for i, e := range st.entries {
			converted[i] = store.LoggedWrite{Val: e.Val, Ver: e.Ver}
		}
		// Entries from different peers may interleave; sort so a stale
		// entry never skips a newer one (Apply guards on newer-than).
		sortLogged(converted)
		n.Store.ApplyLog(st.obj, converted)
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
	n.Store.UnlockRecovered(st.obj)
	n.RecoveryUnlocked(rt, st.obj)
	if !st.ctx.IsZero() {
		rt.Tracer().Span(rt.ID(), st.ctx, "r5-refresh", st.started, rt.Now(), model.TxnID{})
	}
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshDone, VP: n.curID, Obj: st.obj})
	rt.Logf("refresh %s done at %v", st.obj, n.Store.Get(st.obj).Ver)
}

func sortLogged(entries []store.LoggedWrite) {
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Ver.Less(entries[j-1].Ver); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}
