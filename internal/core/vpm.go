package core

import (
	"slices"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file implements the virtual partition management protocol:
// Create-new-VP (Figure 4), Create-VP (Figure 5), Monitor-VP-Creations
// (Figure 6), Send-Probes (Figure 7) and Monitor-Probes (Figure 8).

// Why a processor set out to create a partition. Each committed creation
// is counted once in vp.created and once under its cause.
const (
	causeProbeMismatch   = "probe-mismatch"   // a probe round's acks differ from the view (Figure 7)
	causeHigherProbe     = "higher-probe"     // probed from a higher-numbered partition (Figure 8)
	causeNoResponse      = "no-response"      // a physical access went unanswered (Figures 10–11)
	causeRefreshTimeout  = "refresh-timeout"  // an R5 recovery read went unanswered (Figure 9)
	causeRefreshRefused  = "refresh-refused"  // a view member kept refusing R5 recovery reads
	causeAcceptTimeout   = "accept-timeout"   // no commit within 3δ of an acceptance (Figure 6)
	causeStaleInvitation = "stale-invitation" // invited, under a spent number, from outside the view
	causeRestart         = "restart"          // recovered from the journal, unassigned
)

var createdByCause = metrics.NewFamily(metrics.CVPCreated)

// depart leaves the current virtual partition: assigned ← false, and
// everything predicated on membership is torn down (rule R4). Departure
// is autonomous — no messages are needed, exactly as §4 requires. The
// reason is the cause of the creation being started, or the invitation
// being followed.
func (n *Node) depart(rt net.Runtime, reason string) {
	if !n.assigned {
		return
	}
	n.assigned = false
	// The §6 previous partition vouches for copies kept current there; a
	// processor that leaves with a refresh unfinished reports none.
	n.myPrev = n.curID
	if len(n.refreshing) > 0 {
		n.myPrev = model.VPID{}
	}
	n.departedAt, n.departedSet = rt.Now(), true
	n.abandonRefresh(rt)
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvVPDepart, VP: n.curID, Msg: reason})
	if n.Observer != nil {
		n.Observer(DepartEvent{Proc: rt.ID(), VP: n.curID, At: rt.Now()})
	}
	if n.cfg.WeakR4 {
		// Migration decisions happen at the next join, when the new view
		// is known; for now only refuse *new* work (AcceptAccess and
		// Begin fail while unassigned). Nothing is aborted yet.
		return
	}
	n.EpochChanged(rt, "departed partition ("+reason+")")
}

// CreateNewVP is the procedure of Figure 4: depart and start an attempt
// to form a new, higher-numbered virtual partition.
func (n *Node) CreateNewVP(rt net.Runtime, cause string) {
	if !n.assigned {
		// A creation or join is already in progress somewhere (we have
		// departed); let it run its course (Figure 4 line 2).
		return
	}
	n.depart(rt, cause)
	n.startCreateVP(rt, cause)
}

// startCreateVP takes the next identifier and runs phase one of
// Create-VP (Figure 5): invite everyone and collect acceptances, for 2δ
// at most. The identifier leaves the processor here, so the invitations
// wait for its max-id record to be durable: a processor killed after
// inviting must restart above every identifier it ever announced, or it
// would reuse one and forge S3's order.
func (n *Node) startCreateVP(rt net.Runtime, cause string) {
	n.bumpMaxID(model.VPID{N: n.maxID.N + 1, P: rt.ID()})
	id := n.maxID
	n.Promise(rt, true, func(rt net.Runtime) { n.invite(rt, id, cause) })
}

func (n *Node) invite(rt net.Runtime, id model.VPID, cause string) {
	n.creating = true
	n.createID = id
	n.createCause = cause
	n.accepts = map[model.ProcID]wire.AcceptVP{rt.ID(): n.acceptance(rt, id)}
	rt.Metrics().Inc(metrics.CVPInvites, 1)
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvVPInvite, VP: id})
	for _, p := range rt.Procs() {
		if p != rt.ID() {
			rt.Send(p, wire.NewVP{ID: id})
		}
	}
	n.createTimer = rt.SetTimer(2*n.cfg.Delta, createWindow{id: id})
	rt.Logf("create-vp %v: inviting (%s)", id, cause)
	n.closeWindowIfUnanimous(rt)
}

// onAcceptVP collects acceptances ("OK" messages, Figure 5 lines 8–9).
func (n *Node) onAcceptVP(rt net.Runtime, from model.ProcID, m wire.AcceptVP) {
	if n.creating && m.ID == n.createID {
		n.accepts[m.From] = m
		n.closeWindowIfUnanimous(rt)
	}
}

// acceptance is this processor's answer to invitation id: its previous
// partition and its write digest. It is taken only after the processor
// has departed, so until it joins id its copies can move only by the
// Decide of a write it lists as staged (see join).
func (n *Node) acceptance(rt net.Runtime, id model.VPID) wire.AcceptVP {
	newest, staged := n.Store.Digest()
	return wire.AcceptVP{ID: id, From: rt.ID(), Prev: n.myPrev,
		Digest: wire.Digest{Newest: newest, Staged: staged}}
}

// closeWindowIfUnanimous ends phase one as soon as every processor has
// accepted: the 2δ window bounds the wait for a processor that does not
// answer, and nobody is left to wait for.
func (n *Node) closeWindowIfUnanimous(rt net.Runtime) {
	for _, p := range rt.Procs() {
		if _, ok := n.accepts[p]; !ok {
			return
		}
	}
	rt.CancelTimer(n.createTimer)
	n.onCreateWindow(rt, n.createID)
}

// onCreateWindow ends phase one — when the 2δ timer fires, or earlier
// with every processor's acceptance — and, if this creation is still
// the highest-numbered attempt this processor knows of, commits phase
// two (Figure 5 lines 14–19).
func (n *Node) onCreateWindow(rt net.Runtime, id model.VPID) {
	if !n.creating || n.createID != id {
		return
	}
	n.creating = false
	if id != n.maxID {
		// A higher-numbered invitation was accepted meanwhile; that
		// protocol run owns this processor's fate now (its 3δ timer is
		// armed). Nothing to do.
		return
	}
	var view model.ProcSet
	prevs := make(map[model.ProcID]model.VPID, len(n.accepts))
	digests := make(map[model.ProcID]wire.Digest, len(n.accepts))
	for p, a := range n.accepts {
		view.Add(p)
		prevs[p] = a.Prev
		digests[p] = a.Digest
	}
	rt.Metrics().Inc(metrics.CVPCreated, 1)
	rt.Metrics().Inc(createdByCause.Name(n.createCause), 1)
	// Send the commits before joining locally: join starts rule R5
	// recovery, whose reads must not overtake the commit messages.
	if tr := rt.Tracer(); tr.Enabled() {
		tr.Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvVPCommit, VP: id, Procs: view})
	}
	members := view.Sorted()
	for _, p := range members {
		if p != rt.ID() {
			rt.Send(p, wire.CommitVP{ID: id, View: members, Prevs: prevs, Digests: digests})
		}
	}
	n.join(rt, id, view, prevs, digests, n.createCause)
}

// onNewVP handles an invitation (Figure 6 lines 5–10): accept iff it is
// higher-numbered than everything seen so far.
func (n *Node) onNewVP(rt net.Runtime, from model.ProcID, m wire.NewVP) {
	if !n.maxID.Less(m.ID) {
		// The number is spent and the invitation void, but its arrival
		// says what a higher partition's probe says (Figure 8 line 7): a
		// processor outside our view can reach us. It cannot know our
		// number — a restarted processor counts on from its journal — so
		// we out-number it instead of leaving the merge to the next probe
		// period. One creation per message at most, as for probes: having
		// departed, this processor ignores the rest.
		if n.assigned && !n.lview.Has(from) {
			n.CreateNewVP(rt, causeStaleInvitation)
		}
		return
	}
	n.bumpMaxID(m.ID)
	n.depart(rt, "invited to "+m.ID.String())
	// Accepting cancels any lower-numbered creation of our own: its 2δ
	// window will find createID ≠ maxID and stand down. The acceptance
	// tells the initiator this processor has seen m.ID, so it waits for
	// the max-id record like an invitation does (see startCreateVP).
	n.Promise(rt, true, func(rt net.Runtime) {
		rt.Send(m.ID.P, n.acceptance(rt, m.ID))
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvVPAccept, VP: m.ID, Peer: m.ID.P})
	})
	n.resetAcceptTimer(rt)
}

// onCommitVP handles phase two (Figure 6 lines 12–20): commit to the
// partition if no higher-numbered invitation intervened.
func (n *Node) onCommitVP(rt net.Runtime, from model.ProcID, m wire.CommitVP) {
	if m.ID != n.maxID || n.assigned {
		return
	}
	n.cancelAcceptTimer(rt)
	n.join(rt, m.ID, model.NewProcSet(m.View...), m.Prevs, m.Digests, "")
}

// onAcceptTimeout fires when a commit never arrived within 3δ of an
// acceptance (initiator failed, or messages were lost): start a creation
// of our own (Figure 6 lines 22–24).
func (n *Node) onAcceptTimeout(rt net.Runtime) {
	n.acceptTimerSet = false
	if n.assigned {
		return
	}
	n.startCreateVP(rt, causeAcceptTimeout)
}

func (n *Node) resetAcceptTimer(rt net.Runtime) {
	if n.acceptTimerSet {
		rt.CancelTimer(n.acceptTimer)
	}
	n.acceptTimer = rt.SetTimer(3*n.cfg.Delta, acceptTimeout{})
	n.acceptTimerSet = true
}

func (n *Node) cancelAcceptTimer(rt net.Runtime) {
	if n.acceptTimerSet {
		rt.CancelTimer(n.acceptTimer)
		n.acceptTimerSet = false
	}
}

// join assigns this processor to partition id with the given common view
// (the second half of phase two, shared by initiator and acceptors), and
// kicks off rule R5 recovery for the accessible local copies. cause is
// why the partition was created, which only its initiator knows.
func (n *Node) join(rt net.Runtime, id model.VPID, view model.ProcSet, prevs map[model.ProcID]model.VPID,
	digests map[model.ProcID]wire.Digest, cause string) {
	oldView := n.lview
	n.curID = id
	n.bumpMaxID(id)
	n.setView(view)
	n.prevs = prevs
	n.digests = digests
	n.assigned = true
	n.ViewChanges++
	n.vcCtx = model.TraceCtx{}
	if tr := rt.Tracer(); tr.Enabled() {
		// One trace per (partition, processor) view change: the span runs
		// from departure (when known) to this join, and R5 refresh spans
		// attach below it. The id derivation is deterministic under
		// simulation.
		trid := id.N*0x9E3779B1 ^ uint64(id.P)<<40 ^ uint64(rt.ID())<<8
		if trid == 0 {
			trid = 1
		}
		n.vcCtx = model.TraceCtx{Trace: trid, Span: n.NextSpan()}
		start := rt.Now()
		if n.departedSet {
			start = n.departedAt
		}
		tr.Span(rt.ID(), n.vcCtx, "view-change", start, rt.Now(), model.TxnID{})
	}
	if n.departedSet {
		rt.Metrics().ObserveDuration(metrics.SViewChange, rt.Now()-n.departedAt)
		n.departedSet = false
	}
	if tr := rt.Tracer(); tr.Enabled() {
		tr.Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvVPJoin, VP: id, Procs: view})
	}
	rt.Logf("joined %v view=%v", id, view)
	if n.Observer != nil {
		n.Observer(JoinEvent{Proc: rt.ID(), VP: id, View: view, At: rt.Now(), Cause: cause})
	}

	if n.cfg.WeakR4 {
		n.migrateOrAbort(rt, oldView)
	}

	// locked ← {l | l ∈ L & accessible(l, lview) & l ∈ local}
	// (Figure 5 line 18 / Figure 6 lines 15–17). With every copy set
	// accessible that is all of local, which nobody mutates.
	locked := n.Cat.Local(rt.ID())
	if slices.ContainsFunc(n.targets, func(t []model.ProcID) bool { return t == nil }) {
		locked = slices.DeleteFunc(slices.Clone(locked), func(obj model.ObjectID) bool { return !n.objAccessible(obj) })
	}
	if len(locked) == 0 {
		n.FlushDeferred(rt)
		return
	}
	if n.cfg.UsePrevOpt {
		// §6 split-off optimization: if every member of the new partition
		// was previously assigned to one common partition, every accessible
		// copy is already up to date. Otherwise the members' write digests
		// clear every copy no member can hold a newer version of. DESIGN.md
		// has the argument for both.
		var stale []model.ObjectID // split off: none
		if !n.allPrevsEqual() {
			stale = n.staleCopies(rt, locked)
		}
		if skipped := len(locked) - len(stale); skipped > 0 {
			rt.Metrics().Inc(metrics.CRefreshSkips, int64(skipped))
			rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvRefreshSkip, VP: id, Aux: int64(skipped)})
			rt.Logf("refresh skipped for %d of %d objects", skipped, len(locked))
		}
		locked = stale
		if len(locked) == 0 {
			n.FlushDeferred(rt)
			return
		}
	}
	n.Store.LockForRecovery(locked)
	rt.Metrics().Inc(metrics.CRefreshing, int64(len(locked)))
	n.FlushDeferred(rt)
	n.startRefresh(rt, locked)
}

// staleCopies returns the objects, of the accessible local copies objs,
// whose refresh could change something: some other member lists the
// object as staged, or the copy is older than some other member's newest
// version. A member without a digest makes every copy stale; members
// that have seen no write and stage nothing make none stale.
func (n *Node) staleCopies(rt net.Runtime, objs []model.ObjectID) []model.ObjectID {
	var newest model.Version
	var staged map[model.ObjectID]bool
	for _, p := range n.lview.Sorted() {
		if p == rt.ID() {
			continue
		}
		d, ok := n.digests[p]
		if !ok {
			return objs
		}
		if newest.Less(d.Newest) {
			newest = d.Newest
		}
		for _, o := range d.Staged {
			if staged == nil {
				staged = make(map[model.ObjectID]bool)
			}
			staged[o] = true
		}
	}
	if !(model.Version{}).Less(newest) && staged == nil {
		return nil
	}
	var stale []model.ObjectID
	for _, obj := range objs {
		if staged[obj] || n.Store.Get(obj).Ver.Less(newest) {
			stale = append(stale, obj)
		}
	}
	return stale
}

func (n *Node) allPrevsEqual() bool {
	var common model.VPID
	first := true
	for _, p := range n.lview.Sorted() {
		prev, ok := n.prevs[p]
		if !ok {
			return false
		}
		if first {
			common, first = prev, false
		} else if prev != common {
			return false
		}
	}
	return !first && !common.IsZero()
}

// migrateOrAbort implements the §6 weakened rule R4: transactions whose
// entire footprint remains inside the new partition adopt its epoch; all
// others abort. The conditions, per §6 with one strengthening:
//
//	(1) every referenced object is accessible in the new view;
//	(2) every processor physically touched so far is in the new view;
//	(+) for every referenced object, the copies inside the new view are
//	    exactly the copies inside the old view — otherwise a write-all
//	    performed under the old view would miss copies that the new view
//	    exposes to read-one, breaking one-copy equivalence on merges.
func (n *Node) migrateOrAbort(rt net.Runtime, oldView model.ProcSet) {
	n.MigrateActive(rt, node.Epoch{VP: n.curID, Has: true},
		func(objs []model.ObjectID, procs model.ProcSet) bool {
			for _, o := range objs {
				if !n.Cat.Accessible(o, n.lview) {
					return false
				}
				copies := n.Cat.Copies(o)
				if copies&n.lview != copies&oldView {
					return false
				}
			}
			return procs.Subset(n.lview)
		},
		"partition changed (weak R4: footprint left the view)")
}

// ---------------------------------------------------------------------------
// Probing (Figures 7 and 8)
// ---------------------------------------------------------------------------

func (n *Node) onProbeTick(rt net.Runtime) {
	n.probeArmed = false
	if !n.assigned {
		n.armProbe(rt, n.cfg.Pi)
		return
	}
	n.probeSeq++
	n.probeAcks = model.NewProcSet(rt.ID())
	n.probeOpen = true
	n.probeVP = n.curID
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvProbeSend, VP: n.curID, Aux: int64(n.probeSeq)})
	for _, p := range rt.Procs() {
		if p != rt.ID() {
			rt.Send(p, wire.Probe{From: rt.ID(), VP: n.curID, Seq: n.probeSeq})
		}
	}
	rt.SetTimer(2*n.cfg.Delta, probeWindow{seq: n.probeSeq})
}

func (n *Node) onProbeWindow(rt net.Runtime, seq uint64) {
	if !n.probeOpen || seq != n.probeSeq {
		return
	}
	n.probeOpen = false
	// Figure 7 line 21: any discrepancy between the acknowledging set
	// and the view triggers a new partition. The acks answer the
	// partition the round was opened in; a processor that has changed
	// partitions since holds them against nothing.
	if n.assigned && n.curID == n.probeVP && n.probeAcks != n.lview {
		rt.Logf("probe %d: acks %v ≠ view %v", seq, n.probeAcks, n.lview)
		n.CreateNewVP(rt, causeProbeMismatch)
	}
	// Figure 7 line 24: wait π−2δ before the next round (the window
	// already consumed 2δ), whatever became of this one.
	n.armProbe(rt, n.cfg.Pi-2*n.cfg.Delta)
}

func (n *Node) onProbe(rt net.Runtime, from model.ProcID, m wire.Probe) {
	if !n.assigned {
		return
	}
	switch {
	case m.VP == n.curID:
		rt.Send(from, wire.ProbeAck{From: rt.ID(), Seq: m.Seq})
	case m.VP.Less(n.curID):
		// Old, delayed probe: ignore (Figure 8 line 6).
	default:
		// A processor in a higher-numbered partition can reach us: the
		// views have diverged (Figure 8 line 7). The probe's identifier
		// counts as "seen" (Figure 4 requires the new identifier to
		// exceed every sequence number seen so far), so fold it into
		// max-id first — otherwise a processor that churned through many
		// solo partitions would keep out-numbering our creations and
		// merging would take one probe period per missed number.
		n.bumpMaxID(m.VP)
		n.CreateNewVP(rt, causeHigherProbe)
	}
}

func (n *Node) onProbeAck(rt net.Runtime, from model.ProcID, m wire.ProbeAck) {
	if n.probeOpen && m.Seq == n.probeSeq {
		n.probeAcks.Add(from)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: rt.ID(), Kind: trace.EvProbeAck, VP: n.curID, Peer: from, Aux: int64(m.Seq)})
	}
}
