package node

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file is the coordinator side of a node: it executes a submitted
// transaction's operations sequentially (Logical-Read / Logical-Write of
// Figures 10–11, generalized to access plans), buffers writes, and runs
// two-phase commit over the participants.

// Why a transaction aborted; each abort is counted once in txn.abort and
// once under its cause.
const (
	abortWaitDie       = "wait_die"       // lost a lock conflict to an older transaction
	abortEpochChanged  = "epoch_changed"  // a partition it ran in changed, here or at a participant
	abortVoteTimeout   = "vote_timeout"   // a prepare went unanswered
	abortLockTimeout   = "lock_timeout"   // a lock request went unanswered
	abortParticipantNo = "participant_no" // a participant refused the prepare
	abortBaseVersion   = "base_version"   // a copy was not at the version the write was derived from
	abortInaccessible  = "inaccessible"   // rule R1, or no plan for the access
)

var abortByCause = metrics.NewFamily(metrics.CTxnAbort)

type txnPhase uint8

const (
	phaseRunning txnPhase = iota
	phaseVoting
	phaseDeciding
	phaseDone
)

type txn struct {
	id  model.TxnID
	tag uint64
	// epochs holds the epoch pinned per touched shard (rule R4 applied
	// shard by shard; model.NoShard alone when unsharded), in ascending
	// shard order. Trace and history records carry the model.NoShard
	// epoch, zero for a sharded transaction.
	epochs []shardEpoch
	ops    []wire.Op
	opIdx  int
	phase  txnPhase

	// objs holds one record per object the operations name, sorted by
	// object id; parts one per participant, sorted by (processor,
	// shard). Every fan-out walks one of them, so their order is the
	// order the messages leave in.
	objs  []txnObj
	parts []txnPart

	// current operation state. An access plan targets one object, and an
	// object lives in exactly one shard, so got stays processor-keyed;
	// planShard names the shard the plan runs against (zero unsharded).
	plan      Plan
	planObj   model.ObjectID
	planShard model.ShardID
	planMode  model.LockMode
	got       map[model.ProcID]wire.LockResp
	opTimer   net.TimerID
	escalated bool

	// sentAt is when the accesses the armed timer waits for — the current
	// operation's lock requests, or the prepares — went out: what the
	// no-response exception measures a suspect's silence from.
	sentAt time.Duration

	// two-phase commit: voters counts the participants with a prepare,
	// yes their yes-votes so far and unacked those yet to acknowledge
	// the decision.
	voters, yes, unacked int
	voteTimer            net.TimerID
	// selfVotes counts the votes still out at this processor's own copies
	// (shard by shard); the coordinator's vote record follows the last
	// one, behind their stage records in the one journal. voteCast: the
	// record is appended; voteDurable: its barrier has released.
	selfVotes   int
	voteCast    bool
	voteDurable bool
	// recollect marks a transaction a restart found as a vote record
	// without a decision: it has no client and no operations, only votes
	// to collect again — and no epoch change, timeout or validity check
	// may abort it, because its last incarnation may have committed.
	recollect bool
	commit    bool
	// announced is set once the decision's journal record is durable;
	// until then no remote participant and no DecideQuery may learn it.
	announced  bool
	retryTimer net.TimerID

	// tracing: ctx is the transaction's root span (zero when untraced);
	// the phase contexts parent outbound fan-outs so participant spans
	// land under the phase that caused them. Spans are recorded at close.
	ctx       model.TraceCtx
	begun     time.Duration
	opCtx     model.TraceCtx // current coord-lock span
	opStart   time.Duration
	prepCtx   model.TraceCtx // coord-prepare span
	prepStart time.Duration
	decCtx    model.TraceCtx // coord-decide span
	decStart  time.Duration
}

// txnObj is what a transaction knows of one object.
type txnObj struct {
	id    model.ObjectID
	shard model.ShardID
	// read: val and readVer are the value read and its version.
	read    bool
	val     model.Value
	readVer model.Version
	// write: wval is the buffered write, targets the copies it goes to
	// (granted, or planned when lockLate), missedBy the targets that
	// never granted; writeVer is assigned at commit.
	write    bool
	wval     model.Value
	writeVer model.Version
	targets  []model.ProcID
	missedBy []model.ProcID
	// maxSeen is the newest version among the copies locked; the zero
	// version is below every version a copy holds.
	maxSeen model.Version
	// lockLate marks a write that ran no lock round: the transaction
	// already holds the object's version under a read lock, so the
	// exclusive locks are taken by the Prepare (wire.ObjWrite.Lock).
	lockLate bool
}

// shardEpoch is the epoch a transaction pinned for one shard.
type shardEpoch struct {
	shard model.ShardID
	ep    Epoch
}

// obj returns the record of o, which one of t's operations names.
func (t *txn) obj(o model.ObjectID) *txnObj {
	i, _ := t.findObj(o)
	return &t.objs[i]
}

// findObj is where o's record is or would go in t.objs.
func (t *txn) findObj(o model.ObjectID) (int, bool) {
	return slices.BinarySearchFunc(t.objs, o, func(r txnObj, o model.ObjectID) int { return strings.Compare(string(r.id), string(o)) })
}

// epochAt is where shard s's epoch is, or would go, in t.epochs.
func (t *txn) epochAt(s model.ShardID) (int, bool) {
	return slices.BinarySearchFunc(t.epochs, s, func(e shardEpoch, s model.ShardID) int { return cmp.Compare(e.shard, s) })
}

// epoch returns the epoch t pinned for shard s (zero when none).
func (t *txn) epoch(s model.ShardID) Epoch {
	if i, ok := t.epochAt(s); ok {
		return t.epochs[i].ep
	}
	return Epoch{}
}

// pin sets the epoch of shard s.
func (t *txn) pin(s model.ShardID, ep Epoch) {
	i, ok := t.epochAt(s)
	if !ok {
		t.epochs = slices.Insert(t.epochs, i, shardEpoch{shard: s})
	}
	t.epochs[i].ep = ep
}

// stamp is the age of a transaction starting now — what wait-die orders
// by. Processors read different clocks (a TCP node counts from its own
// start), and one whose clock runs ahead would have the youngest
// transaction in every conflict, for ever; so the clock is Lamport's: no
// stamp is below one this processor has seen on a request (Witness) or
// handed out.
func (b *Base) stamp(rt net.Runtime) int64 {
	if now := int64(rt.Now()); now > b.stamped {
		b.stamped = now
	} else {
		b.stamped++
	}
	return b.stamped
}

// Witness takes note of a transaction this processor serves a request
// of; see stamp. A sharded processor's router calls it for its
// coordinator, which serves none itself.
func (b *Base) Witness(txn model.TxnID) { b.stamped = max(b.stamped, txn.Start) }

// heldTxn is a submitted transaction waiting for the Decide of a commit
// on one of its objects to leave (see Base.telling); ctx is the trace
// context it arrived with.
type heldTxn struct {
	ct  wire.ClientTxn
	ctx model.TraceCtx
}

// awaitsDecide reports whether a commit decided here still owes the
// remote copies of one of the transaction's objects its Decide.
func (b *Base) awaitsDecide(ops []wire.Op) bool {
	if len(b.telling) == 0 {
		return false
	}
	for _, op := range ops {
		if b.telling[op.Obj] > 0 {
			return true
		}
	}
	return false
}

// told ends the hold t's commit put on its objects — its Decide has left
// — and starts, in arrival order, whatever was waiting for that.
func (b *Base) told(rt net.Runtime, t *txn) {
	for _, o := range t.objs {
		if !o.write {
			continue
		}
		if b.telling[o.id]--; b.telling[o.id] == 0 {
			delete(b.telling, o.id)
		}
	}
	held := b.held
	b.held = nil
	for _, h := range held {
		b.startTxn(rt, h.ct, h.ctx)
	}
}

func (b *Base) startTxn(rt net.Runtime, ct wire.ClientTxn, parent model.TraceCtx) {
	deny := func(reason string) {
		rt.Metrics().Inc(metrics.CTxnDenied, 1)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnDeny, Msg: reason, Aux: int64(ct.Tag)})
		rt.Send(model.NoProc, wire.ClientResult{
			Tag: ct.Tag, Denied: true, Reason: reason,
		})
	}
	if err := validateOps(ct.Ops); err != nil {
		deny(err.Error())
		return
	}
	if b.awaitsDecide(ct.Ops) {
		// The client of the last commit on one of these objects has its
		// answer; the remote copies have not heard yet and still hold that
		// transaction's locks, where wait-die would kill this younger one.
		// Behind the Decide, on the same connections, it finds them free.
		b.held = append(b.held, heldTxn{ct: ct, ctx: parent})
		b.hurry(rt)
		return
	}
	// One record per object, each with its shard; and one epoch pinned
	// per touched shard up-front (rule R4 per shard), asked for in
	// operation order: a transaction whose footprint includes an
	// inaccessible shard is denied before it takes any locks anywhere.
	t := &txn{tag: ct.Tag, ops: ct.Ops, objs: make([]txnObj, 0, len(ct.Ops))}
	for _, op := range ct.Ops {
		i, known := t.findObj(op.Obj)
		if known {
			continue
		}
		s := b.shardOf(op.Obj)
		t.objs = slices.Insert(t.objs, i, txnObj{id: op.Obj, shard: s})
		if _, ok := t.epochAt(s); ok {
			continue
		}
		e, err := b.Strat.Begin(rt, s)
		if err != nil {
			deny(err.Error())
			return
		}
		t.pin(s, e)
	}
	b.seq++
	t.id = model.TxnID{Start: b.stamp(rt), P: b.ID, Seq: b.seq}
	b.active[t.id] = t
	if rt.Tracer().Enabled() {
		if parent.IsZero() {
			// No client-minted context (vpsim, vpctl): derive a
			// deterministic root trace id from the transaction id so
			// simulated runs yield reproducible span trees.
			parent = model.TraceCtx{Trace: uint64(t.id.Start)*1_000_003 ^ uint64(t.id.P)<<32 ^ t.id.Seq}
			if parent.Trace == 0 {
				parent.Trace = 1
			}
		}
		if !parent.IsZero() {
			t.ctx = parent.Child(b.NextSpan())
			t.begun = rt.Now()
		}
	}
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnBegin, VP: t.epoch(model.NoShard).VP, Txn: t.id, Aux: int64(len(ct.Ops))})
	b.step(rt, t)
}

// validateOps rejects specifications whose writes reference registers
// never read (the wire format has no way to evaluate them).
func validateOps(ops []wire.Op) error {
	if len(ops) == 0 {
		return fmt.Errorf("empty transaction")
	}
	for i, op := range ops {
		switch op.Kind {
		case wire.OpRead:
		case wire.OpWrite:
			if op.UseSrc && !slices.ContainsFunc(ops[:i], func(r wire.Op) bool { return r.Kind == wire.OpRead && r.Obj == op.Src }) {
				return fmt.Errorf("op %d writes %s from unread register %s", i, op.Obj, op.Src)
			}
		default:
			return fmt.Errorf("op %d has unknown kind %d", i, op.Kind)
		}
		if op.Obj == "" {
			return fmt.Errorf("op %d names no object", i)
		}
	}
	return nil
}

// step launches the next operation that needs a lock round or, when
// none is left, the commit.
func (b *Base) step(rt net.Runtime, t *txn) {
	for t.opIdx < len(t.ops) {
		op := t.ops[t.opIdx]
		var (
			plan Plan
			err  error
			mode model.LockMode
		)
		switch op.Kind {
		case wire.OpRead:
			rt.Metrics().Inc(metrics.CLogicalRead, 1)
			plan, err = b.Strat.ReadPlan(rt, op.Obj)
			mode = model.LockShared
		case wire.OpWrite:
			rt.Metrics().Inc(metrics.CLogicalWrite, 1)
			plan, err = b.Strat.WritePlan(rt, op.Obj)
			mode = model.LockExclusive
		}
		if err != nil {
			// Rule R1 denial ("signal abort" in Figures 10–11).
			b.abortTxn(rt, t, abortInaccessible, "inaccessible: "+err.Error())
			return
		}
		if len(plan.Targets) == 0 {
			b.abortTxn(rt, t, abortInaccessible, "empty access plan for "+string(op.Obj))
			return
		}
		o := t.obj(op.Obj)
		if o.read && op.Kind == wire.OpWrite && plan.LockAtPrepare {
			// Figure 11 as written: one physical-write request per copy.
			// The version to derive the new one from is in hand, read
			// under a lock this transaction still holds, and every target
			// either has that version or votes no.
			t.bufferWrite(op, plan.Targets, nil)
			o.lockLate = true
			t.opIdx++
			continue
		}
		t.plan = plan
		t.planObj = op.Obj
		t.planShard = o.shard
		t.planMode = mode
		t.got = make(map[model.ProcID]wire.LockResp)
		t.escalated = false
		if !t.ctx.IsZero() {
			t.opCtx, t.opStart = t.ctx.Child(b.NextSpan()), rt.Now()
		}
		ep := t.epoch(t.planShard)
		// The transaction's first request, if it goes to one copy, finds
		// it holding nothing: it may wait where wait-die would kill it.
		patient := t.opIdx == 0 && len(plan.Targets) == 1
		for _, p := range plan.Targets {
			b.sendPart(rt, partKey{P: p, S: t.planShard}, wire.LockReq{
				Txn: t.id, Obj: op.Obj, Mode: mode,
				Epoch: ep.VP, HasEpoch: ep.Has, Patient: patient,
			}, t.opCtx)
		}
		b.armOpTimer(rt, t)
		return
	}
	b.beginCommit(rt, t)
}

func (b *Base) armOpTimer(rt net.Runtime, t *txn) {
	t.sentAt = rt.Now()
	t.opTimer = rt.SetTimer(b.Cfg.LockTimeout, opTimeout{txn: t.id, op: t.opIdx})
}

// bufferWrite records a logical write: its value, the copies it goes to
// and the copies it could not reach.
func (t *txn) bufferWrite(op wire.Op, targets, missed []model.ProcID) {
	val := model.Value(op.Const)
	if op.UseSrc {
		val += t.obj(op.Src).val
	}
	o := t.obj(op.Obj)
	o.write, o.wval, o.targets, o.missedBy = true, val, targets, missed
}

func (b *Base) handleLockResp(rt net.Runtime, from model.ProcID, s model.ShardID, resp wire.LockResp) {
	t, ok := b.active[resp.Txn]
	if !ok || t.phase != phaseRunning || resp.Obj != t.planObj || s != t.planShard {
		// Straggler grant for a finished, aborted or already-completed
		// operation: free it fast rather than waiting for the lease
		// sweep. Scope the release to the object when the transaction is
		// still alive (it may legitimately hold other locks there).
		if resp.Status == wire.LockGranted {
			if ok {
				b.sendPartPlain(rt, partKey{P: from, S: s}, wire.Release{Txn: resp.Txn, Obj: resp.Obj})
			} else {
				b.sendPartPlain(rt, partKey{P: from, S: s}, wire.Release{Txn: resp.Txn})
			}
		}
		return
	}
	if _, dup := t.got[from]; dup {
		return
	}
	// A response addressed to an epoch the transaction no longer runs in
	// is stale (weak-R4 migration re-issued the request): ignore it.
	ep := t.epoch(s)
	stale := resp.HasEpoch != ep.Has || (resp.HasEpoch && resp.Epoch != ep.VP)
	switch resp.Status {
	case wire.LockDenied:
		b.abortTxn(rt, t, abortWaitDie, "lock denied (wait-die)")
		return
	case wire.LockWrongEpoch:
		if stale {
			return
		}
		if b.inTransition(rt) {
			// This node is between partitions; the refusal may predate a
			// migration that is about to happen. The operation timeout
			// is the backstop if it does not.
			return
		}
		b.abortTxn(rt, t, abortEpochChanged, "physical access refused: different partition")
		return
	}
	if !slices.Contains(t.plan.Targets, from) {
		return
	}
	t.got[from] = resp
	if len(t.got) == len(t.plan.Targets) {
		b.completeOp(rt, t)
		return
	}
	if t.plan.EarlyQuorum && b.grantedWeight(t) >= t.plan.MinWeight {
		b.completeOp(rt, t)
	}
}

// grantedWeight sums the placement weights of the targets that granted
// the current operation.
func (b *Base) grantedWeight(t *txn) int {
	pl := b.Cat.Placement(t.planObj)
	w := 0
	for _, p := range t.plan.Targets {
		if _, ok := t.got[p]; ok {
			w += pl.Weight(p)
		}
	}
	return w
}

func (b *Base) handleOpTimeout(rt net.Runtime, k opTimeout) {
	t, ok := b.active[k.txn]
	if !ok || t.phase != phaseRunning || t.opIdx != k.op {
		return
	}
	// Tally granted weight against the plan's minimum.
	pl := b.Cat.Placement(t.planObj)
	granted := 0
	var suspects []model.ProcID
	for _, p := range t.plan.Targets {
		if _, ok := t.got[p]; ok {
			granted += pl.Weight(p)
		} else {
			suspects = append(suspects, p)
		}
	}
	if len(suspects) > 0 {
		// Report unresponsive processors even when the plan can proceed
		// with the granted majority: the missing-writes strategy uses
		// this to route later writes around them. (For all-of plans any
		// suspect implies granted < MinWeight, so the VP strategy only
		// ever sees this on its abort path, as in Figures 10–11.)
		b.Strat.OnNoResponse(rt, t.planShard, suspects, t.sentAt)
	}
	if granted >= t.plan.MinWeight && granted > 0 {
		b.completeOp(rt, t)
		return
	}
	b.abortTxn(rt, t, abortLockTimeout, fmt.Sprintf("no response from %v", suspects))
}

// completeOp finishes the current operation with the responses in t.got
// (all targets, or a MinWeight-satisfying subset on timeout).
func (b *Base) completeOp(rt net.Runtime, t *txn) {
	rt.CancelTimer(t.opTimer)
	op := t.ops[t.opIdx]
	// Track the max version seen and the granted target list.
	var maxResp wire.LockResp
	var grantedProcs []model.ProcID
	first := true
	for _, p := range t.plan.Targets {
		resp, ok := t.got[p]
		if !ok {
			continue
		}
		grantedProcs = append(grantedProcs, p)
		if first || maxResp.Ver.Less(resp.Ver) {
			maxResp = resp
			first = false
		}
	}
	o := t.obj(op.Obj)
	if o.maxSeen.Less(maxResp.Ver) {
		o.maxSeen = maxResp.Ver
	}
	ep := t.epoch(t.planShard)
	switch op.Kind {
	case wire.OpRead:
		if !t.escalated {
			if extra := b.Strat.EscalateRead(rt, op.Obj, t.got); len(extra) > 0 {
				t.escalated = true
				added := 0
				for _, p := range extra {
					if slices.Contains(t.plan.Targets, p) {
						continue
					}
					t.plan.Targets = append(t.plan.Targets, p)
					pl := b.Cat.Placement(op.Obj)
					t.plan.MinWeight += pl.Weight(p)
					b.sendPart(rt, partKey{P: p, S: t.planShard}, wire.LockReq{
						Txn: t.id, Obj: op.Obj, Mode: model.LockShared,
						Epoch: ep.VP, HasEpoch: ep.Has,
					}, t.opCtx)
					added++
				}
				if added > 0 {
					t.opTimer = rt.SetTimer(b.Cfg.LockTimeout, opTimeout{txn: t.id, op: t.opIdx})
					return
				}
			}
		}
		for _, p := range grantedProcs {
			t.part(partKey{P: p, S: t.planShard}).shared = true
		}
		for _, p := range t.plan.Targets {
			if _, ok := t.got[p]; !ok {
				b.sendPartPlain(rt, partKey{P: p, S: t.planShard}, wire.Release{Txn: t.id, Obj: op.Obj})
			}
		}
		o.read, o.val, o.readVer = true, maxResp.Val, maxResp.Ver
		if tr := rt.Tracer(); tr.Enabled() {
			tr.Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnRead, VP: ep.VP, Shard: t.planShard, Txn: t.id, Obj: op.Obj,
				Procs: model.NewProcSet(grantedProcs...)})
		}
	case wire.OpWrite:
		var missed []model.ProcID
		for _, p := range t.plan.Targets {
			if _, ok := t.got[p]; !ok {
				missed = append(missed, p)
				// Free whatever that target may grant later.
				b.sendPartPlain(rt, partKey{P: p, S: t.planShard}, wire.Release{Txn: t.id, Obj: op.Obj})
			}
		}
		t.bufferWrite(op, grantedProcs, missed)
		if tr := rt.Tracer(); tr.Enabled() {
			tr.Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnWrite, VP: ep.VP, Shard: t.planShard, Txn: t.id, Obj: op.Obj,
				Procs: model.NewProcSet(grantedProcs...)})
		}
	}
	if !t.opCtx.IsZero() {
		// The coord-lock span covers the whole logical access, including
		// any escalation round: plan fan-out to last needed grant.
		rt.Tracer().Span(b.ID, t.opCtx, "coord-lock", t.opStart, rt.Now(), t.id)
		t.opCtx = model.TraceCtx{}
	}
	t.opIdx++
	b.step(rt, t)
}

func (b *Base) beginCommit(rt net.Runtime, t *txn) {
	if !slices.ContainsFunc(t.objs, func(o txnObj) bool { return o.write }) {
		// Read-only: release shared locks and report. No 2PC needed —
		// strict 2PL already placed the reads correctly.
		t.phase = phaseDone
		for _, p := range t.parts {
			if p.shared {
				b.sendPartPlain(rt, p.partKey, wire.Release{Txn: t.id})
			}
		}
		b.finish(rt, t, true, "", "")
		return
	}
	if !b.stillValid(rt, t) {
		b.abortTxn(rt, t, abortEpochChanged, "partition changed before commit")
		return
	}
	// Assign versions and add each write to its targets' prepares.
	deltaMode := false
	if dw, ok := b.Strat.(DeltaWriter); ok && dw.UseDeltaWrites() {
		deltaMode = true
	}
	n := 0
	for _, o := range t.objs {
		n += len(o.targets)
	}
	t.parts = slices.Grow(t.parts, n)
	for i := range t.objs {
		o := &t.objs[i]
		if !o.write {
			continue
		}
		o.writeVer = model.Version{
			Date:   t.epoch(o.shard).VP, // zero for partition-free protocols
			Ctr:    o.maxSeen.Ctr + 1,
			Writer: t.id,
		}
		val := o.wval
		if deltaMode {
			// Component increment: the written value relative to what
			// the transaction read (read-modify-write required).
			if !o.read {
				b.abortTxn(rt, t, abortInaccessible, "mergeable write of "+string(o.id)+" without a prior read")
				return
			}
			val -= o.val
		}
		w := wire.ObjWrite{Obj: o.id, Val: val, Ver: o.writeVer, Delta: deltaMode, MissedBy: o.missedBy}
		if o.lockLate {
			w.Lock, w.Base = true, o.maxSeen
		}
		for _, p := range o.targets {
			pt := t.part(partKey{P: p, S: o.shard})
			pt.writes = append(pt.writes, w)
		}
	}
	t.phase = phaseVoting
	for _, p := range t.parts {
		if p.voter() {
			t.voters++
		}
	}
	if !t.ctx.IsZero() && t.voters > 0 {
		t.prepCtx, t.prepStart = t.ctx.Child(b.NextSpan()), rt.Now()
	}
	b.sendPrepares(rt, t, t.prepCtx)
}

// sendPrepares fans the prepares out (again, after a weak-R4 migration),
// arms the vote timer and gets the coordinator's own vote under way.
func (b *Base) sendPrepares(rt net.Runtime, t *txn, ctx model.TraceCtx) {
	if t.voteCast {
		rt.Metrics().Inc(metrics.CTxnInDoubt, -1) // voting afresh; castVote counts it again
	}
	t.selfVotes, t.voteCast, t.voteDurable = 0, false, false
	for _, p := range t.parts {
		if !p.voter() {
			continue
		}
		if p.P == b.ID {
			t.selfVotes++
		}
		ep := t.epoch(p.S)
		b.sendPart(rt, p.partKey, wire.Prepare{
			Txn: t.id, Epoch: ep.VP, HasEpoch: ep.Has,
			Writes: p.writes,
		}, ctx)
	}
	// A prepare that has locks to take may wait in a queue as a lock
	// request does, and gets a lock request's time to answer.
	wait := b.Cfg.voteWait()
	if slices.ContainsFunc(t.objs, func(o txnObj) bool { return o.lockLate }) {
		wait = b.Cfg.LockTimeout
	}
	t.sentAt = rt.Now()
	t.voteTimer = rt.SetTimer(wait, voteTimeout{txn: t.id})
	if t.selfVotes == 0 {
		b.castVote(rt, t)
	}
}

// castVote is the coordinator voting: it journals that the prepares are
// out — behind the stage records of its own copies, already in the same
// journal — and starts the barrier that makes both durable, beside the
// participants' barriers and not after them. From this record on the
// outcome belongs to the votes: a restart that finds it collects them
// again (InitBase), so the only way left to abort is a decision forced
// to disk before anyone hears it.
func (b *Base) castVote(rt net.Runtime, t *txn) {
	t.voteCast = true
	b.Journal.Vote(t.id, t.voteRec())
	rt.Metrics().Inc(metrics.CTxnInDoubt, 1)
	if b.Hist != nil {
		b.Hist.InDoubt(b.histRecord(t, true))
	}
	jStart := rt.Now()
	b.Promise(rt, true, func(rt net.Runtime) {
		if t.phase != phaseVoting || !t.voteCast {
			return // decided meanwhile, or migrated and voting afresh
		}
		if !t.ctx.IsZero() {
			// The wait for the coordinator's own vote; runs beside
			// coord-prepare, no longer behind it.
			rt.Tracer().Span(b.ID, t.ctx.Child(b.NextSpan()), "coord-journal", jStart, rt.Now(), t.id)
		}
		t.voteDurable = true
		b.tryCommit(rt, t)
	})
}

// voteRec is the journal's view of the prepares that are out.
func (t *txn) voteRec() durable.VoteRec {
	rec := durable.VoteRec{}
	rec.Parts, rec.Shards = t.voterList()
	for _, e := range t.epochs {
		if e.ep.Has {
			rec.Epochs = make([]model.VPID, 0, t.voters)
			for _, p := range t.parts {
				if p.voter() {
					rec.Epochs = append(rec.Epochs, t.epoch(p.S).VP)
				}
			}
			break
		}
	}
	return rec
}

// noVotes maps what a refused prepare ran into to the abort it causes.
var noVotes = [...]struct{ cause, reason string }{
	wire.NoOther:       {abortParticipantNo, "participant voted no"},
	wire.NoWaitDie:     {abortWaitDie, "participant voted no (wait-die)"},
	wire.NoBaseVersion: {abortBaseVersion, "participant voted no (copy not at the version read)"},
	wire.NoWrongEpoch:  {abortEpochChanged, "participant voted no (different partition)"},
}

func (b *Base) handleVote(rt net.Runtime, from model.ProcID, s model.ShardID, v wire.Vote) {
	t, ok := b.active[v.Txn]
	if !ok || t.phase != phaseVoting {
		return
	}
	p := t.findPart(partKey{P: from, S: s})
	if p == nil || !p.voter() || p.voted {
		return
	}
	ep := t.epoch(s)
	if v.HasEpoch != ep.Has || (v.HasEpoch && v.Epoch != ep.VP) {
		return // stale vote for a pre-migration prepare
	}
	if !v.OK {
		if !t.recollect && b.inTransition(rt) {
			return // may predate an imminent migration; timeout is the backstop
		}
		why := noVotes[wire.NoOther]
		if int(v.Why) < len(noVotes) {
			why = noVotes[v.Why]
		}
		b.decide(rt, t, false, why.cause, why.reason)
		return
	}
	p.voted = true
	t.yes++
	if from == b.ID && !t.voteCast {
		if t.selfVotes--; t.selfVotes == 0 {
			b.castVote(rt, t)
			return // tryCommit follows the barrier
		}
	}
	b.tryCommit(rt, t)
}

// tryCommit commits the transaction once its commit point is reached:
// every participant's yes-vote is durable where it was cast — the remote
// ones arrived, the coordinator's own barrier has released. Nothing else
// is waited for; the decision record is appended, not forced.
func (b *Base) tryCommit(rt net.Runtime, t *txn) {
	if !t.voteDurable || t.yes < t.voters {
		return
	}
	if !t.recollect && !b.stillValid(rt, t) {
		b.decide(rt, t, false, abortEpochChanged, "partition changed during commit")
		return
	}
	b.decide(rt, t, true, "", "")
}

func (b *Base) handleVoteTimeout(rt net.Runtime, k voteTimeout) {
	t, ok := b.active[k.txn]
	if !ok || t.phase != phaseVoting || t.recollect {
		return
	}
	// With the locks riding the prepare this is the only place a dead
	// write target shows: report who did not vote, shard by shard.
	silent := make([][]model.ProcID, len(t.epochs))
	for i, e := range t.epochs {
		for _, p := range t.parts {
			if p.S == e.shard && p.voter() && !p.voted {
				silent[i] = append(silent[i], p.P)
			}
		}
	}
	sent := t.sentAt
	b.decide(rt, t, false, abortVoteTimeout, "prepare timed out")
	for i, e := range t.epochs {
		if len(silent[i]) > 0 {
			b.Strat.OnNoResponse(rt, e.shard, silent[i], sent)
		}
	}
}

// decide fixes the transaction's fate and drives phase two. The decision
// is retransmitted until every participant acknowledges: a participant
// that voted yes blocks until it learns the outcome, so the coordinator
// must keep telling it (across partition heals if necessary).
//
// Who may learn what, and when: a commit is decided at its commit point
// (tryCommit), where the votes alone determine it — a restart collects
// them again and decides the same — so the client, and this processor's
// own copies behind the decision record in the one journal, learn it at
// once. A remote participant may apply and then forget, and a forgotten
// vote would read as "no" to that restart, so remote participants and
// DecideQuery learn it only once the decision record is durable. An
// abort contradicts what the votes may add up to, so nobody learns it
// before its record is durable.
//
// A commit's record is flushed lazily — the client has its answer; it
// rides the next flush anything else asks for — until somebody is seen
// waiting for what it holds back: a transaction held here behind it
// (startTxn) or a lock request that ran into the prepared transaction at
// a participant (nudge, handleDecideQuery) makes it urgent (hurry). An
// abort's is urgent from the start: the client waits for it.
func (b *Base) decide(rt net.Runtime, t *txn, commit bool, cause, reason string) {
	rt.CancelTimer(t.voteTimer)
	if !t.prepCtx.IsZero() {
		rt.Tracer().Span(b.ID, t.prepCtx, "coord-prepare", t.prepStart, rt.Now(), t.id)
		t.prepCtx = model.TraceCtx{}
	}
	t.phase = phaseDeciding
	t.commit = commit
	t.unacked = t.voters
	procs, shards := t.voterList()
	b.Journal.Decide(t.id, commit, procs, shards)
	if t.voteCast {
		rt.Metrics().Inc(metrics.CTxnInDoubt, -1)
	}
	// local is everything that stays on this processor or reveals nothing:
	// read-only participants are released outright, the client answered,
	// the Decide to the coordinator's own copies.
	local := func(rt net.Runtime) {
		for _, p := range t.parts {
			if p.shared && !p.voter() {
				b.sendPartPlain(rt, p.partKey, wire.Release{Txn: t.id})
			}
		}
		for _, p := range t.parts {
			if p.awaitsAck() && p.P == b.ID {
				b.sendPartPlain(rt, p.partKey, wire.Decide{Txn: t.id, Commit: commit})
			}
		}
		b.finish(rt, t, commit, cause, reason)
	}
	if commit {
		for _, o := range t.objs {
			if o.write {
				b.telling[o.id]++
			}
		}
		local(rt)
	}
	b.Promise(rt, !commit, func(rt net.Runtime) {
		t.announced = true
		if !commit {
			local(rt)
		}
		if t.unacked > 0 { // else only own copies took part, and they have answered
			if !t.ctx.IsZero() {
				t.decCtx, t.decStart = t.ctx.Child(b.NextSpan()), rt.Now()
			}
			for _, p := range t.parts {
				if p.awaitsAck() && p.P != b.ID {
					b.sendPart(rt, p.partKey, wire.Decide{Txn: t.id, Commit: commit}, t.decCtx)
				}
			}
			t.retryTimer = rt.SetTimer(b.Cfg.DecideRetry, decideRetry{txn: t.id})
		}
		if commit {
			b.told(rt, t)
		}
	})
}

func (b *Base) handleDecideAck(rt net.Runtime, from model.ProcID, s model.ShardID, a wire.DecideAck) {
	t, ok := b.active[a.Txn]
	if !ok || t.phase != phaseDeciding {
		return
	}
	if p := t.findPart(partKey{P: from, S: s}); p != nil && p.awaitsAck() {
		p.acked = true
		t.unacked--
	}
	if t.unacked == 0 {
		rt.CancelTimer(t.retryTimer)
		if !t.decCtx.IsZero() {
			rt.Tracer().Span(b.ID, t.decCtx, "coord-decide", t.decStart, rt.Now(), t.id)
			t.decCtx = model.TraceCtx{}
		}
		t.phase = phaseDone
		delete(b.active, t.id)
		b.Journal.DecideDone(t.id)
	}
}

// handleDecideQuery answers a participant stuck in the prepared state
// (see sweepLeases) from the journal's point of view. A decision is told
// once its record is durable. A transaction still collecting votes — for
// the first time, or again after a restart found its vote record — gets
// no answer: the protocol in progress will deliver the outcome. A
// transaction this node holds nothing of was never committed: no vote
// record means no commit point was reached (presumed abort), and a
// decision is only forgotten (DecideDone) after every participant's ack,
// which a participant sends after the outcome is durable there — a stale
// query from one of them gets an abort answer that the no-longer-prepared
// participant treats as a no-op.
func (b *Base) handleDecideQuery(rt net.Runtime, from model.ProcID, s model.ShardID, q wire.DecideQuery) {
	if q.Txn.P != b.ID {
		return // misrouted: only the transaction's coordinator may answer
	}
	if t, ok := b.active[q.Txn]; ok {
		if t.phase == phaseDeciding && t.announced {
			b.sendPart(rt, partKey{P: from, S: s}, wire.Decide{Txn: t.id, Commit: t.commit}, t.decCtx)
		} else if t.phase == phaseDeciding {
			b.hurry(rt) // the Decide follows the flush
		}
		return
	}
	b.sendPartPlain(rt, partKey{P: from, S: s}, wire.Decide{Txn: q.Txn, Commit: false})
}

// handleDecideRetry retransmits what the transaction still waits for:
// the decision to participants that have not acknowledged it, or — for a
// restarted coordinator collecting votes again — the question to those
// that have not answered.
func (b *Base) handleDecideRetry(rt net.Runtime, k decideRetry) {
	t, ok := b.active[k.txn]
	if !ok {
		return
	}
	switch {
	case t.phase == phaseDeciding:
		for _, p := range t.parts {
			if p.awaitsAck() {
				b.sendPart(rt, p.partKey, wire.Decide{Txn: t.id, Commit: t.commit}, t.decCtx)
			}
		}
	case t.phase == phaseVoting && t.recollect:
		b.askAgain(rt, t)
	default:
		return
	}
	t.retryTimer = rt.SetTimer(b.Cfg.DecideRetry, decideRetry{txn: t.id})
}

// hurry makes the flush that lazy promises are waiting for happen now:
// an urgent promise with nothing of its own to release.
func (b *Base) hurry(rt net.Runtime) {
	b.Promise(rt, true, func(net.Runtime) {})
}

// askAgain sends a recollecting transaction's question to every
// participant whose vote is still out.
func (b *Base) askAgain(rt net.Runtime, t *txn) {
	for _, p := range t.parts {
		if p.voter() && !p.voted {
			ep := t.epoch(p.S)
			b.sendPartPlain(rt, p.partKey, wire.Prepare{Txn: t.id, Epoch: ep.VP, HasEpoch: ep.Has, Recollect: true})
		}
	}
}

// undecided reports whether a partition change may still abort t: it is
// running, or voting for the first time.
func (t *txn) undecided() bool {
	return t.phase == phaseRunning || t.phase == phaseVoting && !t.recollect
}

// abortTxn aborts a transaction that has not yet decided.
func (b *Base) abortTxn(rt net.Runtime, t *txn, cause, reason string) {
	rt.CancelTimer(t.opTimer)
	rt.CancelTimer(t.voteTimer)
	switch t.phase {
	case phaseVoting:
		// Prepares are out: participants may have staged writes. Decide
		// abort reliably.
		b.decide(rt, t, false, cause, reason)
		return
	case phaseDeciding, phaseDone:
		return // decision already made
	}
	// Running: release everything we touched (best-effort; the lease
	// sweep covers lost Release messages). The targets of a write whose
	// locks were left to the prepare have not been touched.
	t.phase = phaseDone
	var touched []partKey
	touch := func(k partKey) {
		if i, ok := slices.BinarySearchFunc(touched, k, partKey.cmp); !ok {
			touched = slices.Insert(touched, i, k)
		}
	}
	for _, p := range t.parts {
		if p.shared {
			touch(p.partKey)
		}
	}
	for _, o := range t.objs {
		if o.write && !o.lockLate {
			for _, p := range o.targets {
				touch(partKey{P: p, S: o.shard})
			}
		}
	}
	for _, p := range t.plan.Targets {
		touch(partKey{P: p, S: t.planShard})
	}
	for _, k := range touched {
		b.sendPartPlain(rt, k, wire.Release{Txn: t.id})
	}
	b.finish(rt, t, false, cause, reason)
}

// histRecord is what the 1SR checker needs to know about t.
func (b *Base) histRecord(t *txn, committed bool) onecopy.TxnRecord {
	rec := onecopy.TxnRecord{
		ID:        t.id,
		Epoch:     t.epoch(model.NoShard).VP,
		Committed: committed,
		Reads:     make(map[model.ObjectID]model.Version),
		Writes:    make(map[model.ObjectID]model.Version),
	}
	for _, o := range t.objs {
		if o.read {
			rec.Reads[o.id] = o.readVer
		}
		if o.write && committed {
			rec.Writes[o.id] = o.writeVer
		}
	}
	return rec
}

// finish reports the outcome to the client and the history. For commits
// with pending acks the txn stays active (retransmitting Decide) but is
// already reported: the decision is durable.
func (b *Base) finish(rt net.Runtime, t *txn, committed bool, cause, reason string) {
	if t.recollect {
		// No client to answer and nothing known of what it read: the
		// history record the dead incarnation parked gets its outcome.
		rt.Logf("recollected %v: commit=%v", t.id, committed)
		if b.Hist != nil {
			b.Hist.Resolve(t.id, committed)
		}
		return
	}
	if committed {
		rt.Metrics().Inc(metrics.CTxnCommit, 1)
		if tr := rt.Tracer(); tr.Enabled() {
			// The copies that voted yes are the copies written (rule R3).
			for _, o := range t.objs {
				if o.lockLate {
					tr.Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnWrite, VP: t.epoch(o.shard).VP, Shard: o.shard, Txn: t.id, Obj: o.id,
						Procs: model.NewProcSet(o.targets...)})
				}
			}
		}
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnCommit, VP: t.epoch(model.NoShard).VP, Txn: t.id})
	} else {
		rt.Metrics().Inc(metrics.CTxnAbort, 1)
		rt.Metrics().Inc(abortByCause.Name(cause), 1)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnAbort, VP: t.epoch(model.NoShard).VP, Txn: t.id, Msg: reason})
	}
	if b.Hist != nil {
		b.Hist.Record(b.histRecord(t, committed))
	}
	var reads, writes []wire.ObjVal
	if committed {
		for _, o := range t.objs {
			if o.read {
				reads = append(reads, wire.ObjVal{Obj: o.id, Val: o.val, Ver: o.readVer})
			}
			if o.write {
				writes = append(writes, wire.ObjVal{Obj: o.id, Val: o.wval, Ver: o.writeVer})
			}
		}
	}
	if !t.ctx.IsZero() {
		// Root span: submission to client-visible outcome. Decide-ack
		// collection may continue past this point (coord-decide span).
		rt.Tracer().Span(b.ID, t.ctx, "coord-txn", t.begun, rt.Now(), t.id)
	}
	rt.SendCtx(model.NoProc, wire.ClientResult{
		Tag: t.tag, Txn: t.id, Committed: committed, Reason: reason, Reads: reads, Writes: writes,
	}, t.ctx)
	if t.phase == phaseDone {
		delete(b.active, t.id)
	}
}
