package node

import (
	"fmt"
	"time"

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

type txnPhase uint8

const (
	phaseRunning txnPhase = iota
	phaseVoting
	phaseDeciding
	phaseDone
)

type txn struct {
	id    model.TxnID
	tag   uint64
	epoch Epoch
	// epochs, in a sharded deployment, holds the epoch pinned per
	// touched shard (rule R4 applied shard by shard) and shards lists
	// them in ascending order for deterministic iteration. Both are nil
	// when unsharded; epoch alone governs the transaction then.
	epochs map[model.ShardID]Epoch
	shards []model.ShardID
	ops    []wire.Op
	opIdx  int
	phase  txnPhase

	regs      map[model.ObjectID]model.Value   // register file: last read value
	readVers  map[model.ObjectID]model.Version // version observed per read
	writes    map[model.ObjectID]model.Value   // buffered logical writes
	writeVers map[model.ObjectID]model.Version // version assigned per write
	maxSeen   map[model.ObjectID]model.Version // max version among locked copies

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

	// participants, keyed (processor, shard); see shard.go
	sParts     partSet                           // participants granted any shared lock
	writeParts map[model.ObjectID][]model.ProcID // granted write targets per object
	missedBy   map[model.ObjectID][]model.ProcID // write targets that never granted

	// two-phase commit
	voteFrom    partSet
	votesNeeded partSet
	voteTimer   net.TimerID
	commit      bool
	// announced is set once the decision's journal record is durable and
	// the Decide fan-out has left; until then nobody may learn it.
	announced   bool
	pendingAcks partSet
	retryTimer  net.TimerID
	// prepare payload per participant, retained so a weak-R4 migration
	// can re-issue it under the new epoch
	prepares map[partKey][]wire.ObjWrite

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

func (b *Base) startTxn(rt net.Runtime, ct wire.ClientTxn) {
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
	epoch, err := b.Strat.Begin(rt)
	if err != nil {
		deny(err.Error())
		return
	}
	var (
		epochs   map[model.ShardID]Epoch
		shardIDs []model.ShardID
	)
	if b.sharded != nil {
		// Pin one epoch per touched shard up-front (rule R4 per shard):
		// a transaction whose footprint includes an inaccessible shard is
		// denied before it takes any locks anywhere.
		epochs = make(map[model.ShardID]Epoch)
		for _, op := range ct.Ops {
			s := b.sharded.ShardOf(op.Obj)
			if _, ok := epochs[s]; ok {
				continue
			}
			e, serr := b.sharded.ShardEpoch(rt, s)
			if serr != nil {
				deny(fmt.Sprintf("shard %v inaccessible: %v", s, serr))
				return
			}
			epochs[s] = e
			shardIDs = append(shardIDs, s)
		}
		sortShardIDs(shardIDs)
	}
	b.seq++
	t := &txn{
		id:         model.TxnID{Start: int64(rt.Now()), P: b.ID, Seq: b.seq},
		tag:        ct.Tag,
		epoch:      epoch,
		epochs:     epochs,
		shards:     shardIDs,
		ops:        ct.Ops,
		regs:       make(map[model.ObjectID]model.Value),
		readVers:   make(map[model.ObjectID]model.Version),
		writes:     make(map[model.ObjectID]model.Value),
		writeVers:  make(map[model.ObjectID]model.Version),
		maxSeen:    make(map[model.ObjectID]model.Version),
		sParts:     newPartSet(),
		writeParts: make(map[model.ObjectID][]model.ProcID),
		missedBy:   make(map[model.ObjectID][]model.ProcID),
	}
	b.active[t.id] = t
	if rt.Tracer().Enabled() {
		parent := rt.TraceCtx()
		if parent.IsZero() && b.Cfg.TraceSample > 0 && b.seq%uint64(b.Cfg.TraceSample) == 0 {
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
	rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnBegin, VP: epoch.VP, Txn: t.id, Aux: int64(len(ct.Ops))})
	b.step(rt, t)
}

// validateOps rejects specifications whose writes reference registers
// never read (the wire format has no way to evaluate them).
func validateOps(ops []wire.Op) error {
	if len(ops) == 0 {
		return fmt.Errorf("empty transaction")
	}
	read := model.NewObjSet()
	for i, op := range ops {
		switch op.Kind {
		case wire.OpRead:
			read.Add(op.Obj)
		case wire.OpWrite:
			if op.UseSrc && !read.Has(op.Src) {
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

// step launches the next operation or, when all are done, the commit.
func (b *Base) step(rt net.Runtime, t *txn) {
	if t.opIdx >= len(t.ops) {
		b.beginCommit(rt, t)
		return
	}
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
		b.abortTxn(rt, t, "inaccessible: "+err.Error())
		return
	}
	if len(plan.Targets) == 0 {
		b.abortTxn(rt, t, "empty access plan for "+string(op.Obj))
		return
	}
	t.plan = plan
	t.planObj = op.Obj
	t.planShard = b.shardOf(op.Obj)
	t.planMode = mode
	t.got = make(map[model.ProcID]wire.LockResp)
	t.escalated = false
	if !t.ctx.IsZero() {
		t.opCtx, t.opStart = t.ctx.Child(b.NextSpan()), rt.Now()
	}
	ep := t.epochFor(t.planShard)
	for _, p := range plan.Targets {
		b.sendPart(rt, partKey{P: p, S: t.planShard}, wire.LockReq{
			Txn: t.id, Obj: op.Obj, Mode: mode,
			Epoch: ep.VP, HasEpoch: ep.Has,
		}, t.opCtx)
	}
	t.opTimer = rt.SetTimer(b.Cfg.LockTimeout, opTimeout{txn: t.id, op: t.opIdx})
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
	ep := t.epochFor(s)
	stale := resp.HasEpoch != ep.Has || (resp.HasEpoch && resp.Epoch != ep.VP)
	switch resp.Status {
	case wire.LockDenied:
		b.abortTxn(rt, t, "lock denied (wait-die)")
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
		b.abortTxn(rt, t, "physical access refused: different partition")
		return
	}
	inPlan := false
	for _, p := range t.plan.Targets {
		if p == from {
			inPlan = true
			break
		}
	}
	if !inPlan {
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
		if b.sharded != nil {
			b.sharded.ShardNoResponse(rt, t.planShard, suspects)
		} else {
			b.Strat.OnNoResponse(rt, suspects)
		}
	}
	if granted >= t.plan.MinWeight && granted > 0 {
		b.completeOp(rt, t)
		return
	}
	b.abortTxn(rt, t, fmt.Sprintf("no response from %v", suspects))
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
	if cur, ok := t.maxSeen[op.Obj]; !ok || cur.Less(maxResp.Ver) {
		t.maxSeen[op.Obj] = maxResp.Ver
	}
	ep := t.epochFor(t.planShard)
	switch op.Kind {
	case wire.OpRead:
		if !t.escalated {
			if extra := b.Strat.EscalateRead(rt, op.Obj, t.got); len(extra) > 0 {
				t.escalated = true
				added := 0
				for _, p := range extra {
					already := false
					for _, q := range t.plan.Targets {
						if q == p {
							already = true
							break
						}
					}
					if already {
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
			t.sParts.Add(partKey{P: p, S: t.planShard})
		}
		for _, p := range t.plan.Targets {
			if _, ok := t.got[p]; !ok {
				b.sendPartPlain(rt, partKey{P: p, S: t.planShard}, wire.Release{Txn: t.id, Obj: op.Obj})
			}
		}
		t.regs[op.Obj] = maxResp.Val
		t.readVers[op.Obj] = maxResp.Ver
		if tr := rt.Tracer(); tr.Enabled() {
			tr.Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnRead, VP: ep.VP, Shard: t.planShard, Txn: t.id, Obj: op.Obj,
				Procs: append([]model.ProcID(nil), grantedProcs...)})
		}
	case wire.OpWrite:
		val := model.Value(op.Const)
		if op.UseSrc {
			val += t.regs[op.Src]
		}
		t.writes[op.Obj] = val
		t.writeParts[op.Obj] = grantedProcs
		var missed []model.ProcID
		for _, p := range t.plan.Targets {
			if _, ok := t.got[p]; !ok {
				missed = append(missed, p)
				// Free whatever that target may grant later.
				b.sendPartPlain(rt, partKey{P: p, S: t.planShard}, wire.Release{Txn: t.id, Obj: op.Obj})
			}
		}
		t.missedBy[op.Obj] = missed
		if tr := rt.Tracer(); tr.Enabled() {
			tr.Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnWrite, VP: ep.VP, Shard: t.planShard, Txn: t.id, Obj: op.Obj,
				Procs: append([]model.ProcID(nil), grantedProcs...)})
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
	if len(t.writes) == 0 {
		// Read-only: release shared locks and report. No 2PC needed —
		// strict 2PL already placed the reads correctly.
		t.phase = phaseDone
		for _, k := range t.sParts.Sorted() {
			b.sendPartPlain(rt, k, wire.Release{Txn: t.id})
		}
		b.finish(rt, t, true, "")
		return
	}
	if !b.stillValid(rt, t) {
		b.abortTxn(rt, t, "partition changed before commit")
		return
	}
	// Assign versions and group writes per participant.
	deltaMode := false
	if dw, ok := b.Strat.(DeltaWriter); ok && dw.UseDeltaWrites() {
		deltaMode = true
	}
	perPart := make(map[partKey][]wire.ObjWrite)
	objs := model.NewObjSet()
	for o := range t.writes {
		objs.Add(o)
	}
	for _, o := range objs.Sorted() {
		s := b.shardOf(o)
		ver := model.Version{
			Date:   t.epochFor(s).VP, // zero for partition-free protocols
			Ctr:    t.maxSeen[o].Ctr + 1,
			Writer: t.id,
		}
		t.writeVers[o] = ver
		val := t.writes[o]
		if deltaMode {
			// Component increment: the written value relative to what
			// the transaction read (read-modify-write required).
			base, read := t.regs[o]
			if !read {
				b.abortTxn(rt, t, "mergeable write of "+string(o)+" without a prior read")
				return
			}
			val -= base
		}
		for _, p := range t.writeParts[o] {
			k := partKey{P: p, S: s}
			perPart[k] = append(perPart[k], wire.ObjWrite{
				Obj: o, Val: val, Ver: ver, Delta: deltaMode, MissedBy: t.missedBy[o],
			})
		}
	}
	t.phase = phaseVoting
	t.voteFrom = newPartSet()
	t.votesNeeded = newPartSet()
	t.prepares = perPart
	for k := range perPart {
		t.votesNeeded.Add(k)
	}
	if !t.ctx.IsZero() && t.votesNeeded.Len() > 0 {
		t.prepCtx, t.prepStart = t.ctx.Child(b.NextSpan()), rt.Now()
	}
	for _, k := range t.votesNeeded.Sorted() {
		ep := t.epochFor(k.S)
		b.sendPart(rt, k, wire.Prepare{
			Txn: t.id, Epoch: ep.VP, HasEpoch: ep.Has,
			Writes: perPart[k],
		}, t.prepCtx)
	}
	t.voteTimer = rt.SetTimer(b.Cfg.VoteTimeout, voteTimeout{txn: t.id})
}

func (b *Base) handleVote(rt net.Runtime, from model.ProcID, s model.ShardID, v wire.Vote) {
	t, ok := b.active[v.Txn]
	k := partKey{P: from, S: s}
	if !ok || t.phase != phaseVoting || !t.votesNeeded.Has(k) {
		return
	}
	ep := t.epochFor(s)
	if v.HasEpoch != ep.Has || (v.HasEpoch && v.Epoch != ep.VP) {
		return // stale vote for a pre-migration prepare
	}
	if !v.OK {
		if b.inTransition(rt) {
			return // may predate an imminent migration; timeout is the backstop
		}
		b.decide(rt, t, false, "participant voted no")
		return
	}
	t.voteFrom.Add(k)
	if t.voteFrom.Equal(t.votesNeeded) {
		if !b.stillValid(rt, t) {
			b.decide(rt, t, false, "partition changed during commit")
			return
		}
		b.decide(rt, t, true, "")
	}
}

func (b *Base) handleVoteTimeout(rt net.Runtime, k voteTimeout) {
	t, ok := b.active[k.txn]
	if !ok || t.phase != phaseVoting {
		return
	}
	b.decide(rt, t, false, "prepare timed out")
}

// decide fixes the transaction's fate and drives phase two. The decision
// is retransmitted until every participant acknowledges: a participant
// that voted yes blocks until it learns the outcome, so the coordinator
// must keep telling it (across partition heals if necessary).
func (b *Base) decide(rt net.Runtime, t *txn, commit bool, reason string) {
	rt.CancelTimer(t.voteTimer)
	if !t.prepCtx.IsZero() {
		rt.Tracer().Span(b.ID, t.prepCtx, "coord-prepare", t.prepStart, rt.Now(), t.id)
		t.prepCtx = model.TraceCtx{}
	}
	t.phase = phaseDeciding
	t.commit = commit
	t.pendingAcks = t.votesNeeded.Clone()
	jStart := rt.Now()
	if b.Journal != nil {
		procs, shards := splitParts(t.pendingAcks.Sorted())
		b.Journal.Decide(t.id, commit, procs, shards)
		if b.Hist != nil && commit {
			// From here a restart carries the commit out (InitBase) even if
			// this incarnation never gets to announce it.
			b.Hist.InDoubt(b.histRecord(t, true))
		}
	}
	// The decision must be durable before anyone — participant or client —
	// can learn it: a coordinator that restarts without the record answers
	// "abort" to every query (presumed abort, see handleDecideQuery). The
	// same flush lands this processor's own stage records, appended
	// unsynced ahead of the decide record.
	b.Promise(rt, true, func(rt net.Runtime) {
		if b.Journal != nil && !t.ctx.IsZero() {
			// The wait for the decision record's fsync — often the commit
			// path's dominant cost.
			rt.Tracer().Span(b.ID, t.ctx.Child(b.NextSpan()), "coord-journal", jStart, rt.Now(), t.id)
		}
		t.announced = true
		// Read-only participants are released outright.
		for _, k := range t.sParts.Sorted() {
			if !t.votesNeeded.Has(k) {
				b.sendPartPlain(rt, k, wire.Release{Txn: t.id})
			}
		}
		if !t.ctx.IsZero() && t.pendingAcks.Len() > 0 {
			t.decCtx, t.decStart = t.ctx.Child(b.NextSpan()), rt.Now()
		}
		for _, k := range t.pendingAcks.Sorted() {
			b.sendPart(rt, k, wire.Decide{Txn: t.id, Commit: commit}, t.decCtx)
		}
		if t.pendingAcks.Len() > 0 {
			t.retryTimer = rt.SetTimer(b.Cfg.DecideRetry, decideRetry{txn: t.id})
		}
		b.finish(rt, t, commit, reason)
	})
}

func (b *Base) handleDecideAck(rt net.Runtime, from model.ProcID, s model.ShardID, a wire.DecideAck) {
	t, ok := b.active[a.Txn]
	if !ok || t.phase != phaseDeciding {
		return
	}
	t.pendingAcks.Remove(partKey{P: from, S: s})
	if t.pendingAcks.Len() == 0 {
		rt.CancelTimer(t.retryTimer)
		if !t.decCtx.IsZero() {
			rt.Tracer().Span(b.ID, t.decCtx, "coord-decide", t.decStart, rt.Now(), t.id)
			t.decCtx = model.TraceCtx{}
		}
		t.phase = phaseDone
		delete(b.active, t.id)
		if b.Journal != nil {
			b.Journal.DecideDone(t.id)
		}
	}
}

// handleDecideQuery answers a participant stuck in the prepared state
// (see sweepLeases). The coordinator's Decide record is durable before
// the first Decide send (see decide), which makes the journal authoritative:
// if this node holds no record of the transaction, no commit decision
// was ever externalized, so answering abort is sound — presumed abort.
// The other direction is covered too: a participant only stays prepared
// while its DecideAck is unsent, and the ack is only sent after the
// outcome is durable there, so a transaction this coordinator already
// forgot (fully acknowledged, DecideDone) can never be the subject of a
// legitimate query — a stale one gets an abort answer that the
// no-longer-prepared participant treats as a no-op.
func (b *Base) handleDecideQuery(rt net.Runtime, from model.ProcID, s model.ShardID, q wire.DecideQuery) {
	if q.Txn.P != b.ID {
		return // misrouted: only the transaction's coordinator may answer
	}
	if t, ok := b.active[q.Txn]; ok {
		if t.phase == phaseDeciding && t.announced {
			b.sendPart(rt, partKey{P: from, S: s}, wire.Decide{Txn: t.id, Commit: t.commit}, t.decCtx)
		}
		// Running, voting or waiting for the decision record's fsync: the
		// outcome will be delivered by the normal protocol; stay silent.
		return
	}
	b.sendPartPlain(rt, partKey{P: from, S: s}, wire.Decide{Txn: q.Txn, Commit: false})
}

func (b *Base) handleDecideRetry(rt net.Runtime, k decideRetry) {
	t, ok := b.active[k.txn]
	if !ok || t.phase != phaseDeciding {
		return
	}
	for _, k := range t.pendingAcks.Sorted() {
		b.sendPart(rt, k, wire.Decide{Txn: t.id, Commit: t.commit}, t.decCtx)
	}
	t.retryTimer = rt.SetTimer(b.Cfg.DecideRetry, decideRetry{txn: t.id})
}

// abortTxn aborts a transaction that has not yet decided.
func (b *Base) abortTxn(rt net.Runtime, t *txn, reason string) {
	rt.CancelTimer(t.opTimer)
	rt.CancelTimer(t.voteTimer)
	switch t.phase {
	case phaseVoting:
		// Prepares are out: participants may have staged writes. Decide
		// abort reliably.
		b.decide(rt, t, false, reason)
		return
	case phaseDeciding, phaseDone:
		return // decision already made
	}
	// Running: release everything we touched (best-effort; the lease
	// sweep covers lost Release messages).
	t.phase = phaseDone
	touched := t.sParts.Clone()
	for o, procs := range t.writeParts {
		s := b.shardOf(o)
		for _, p := range procs {
			touched.Add(partKey{P: p, S: s})
		}
	}
	for _, p := range t.plan.Targets {
		touched.Add(partKey{P: p, S: t.planShard})
	}
	for _, k := range touched.Sorted() {
		b.sendPartPlain(rt, k, wire.Release{Txn: t.id})
	}
	b.finish(rt, t, false, reason)
}

// histRecord is what the 1SR checker needs to know about t.
func (b *Base) histRecord(t *txn, committed bool) onecopy.TxnRecord {
	rec := onecopy.TxnRecord{
		ID:        t.id,
		Epoch:     t.epoch.VP,
		Committed: committed,
		Reads:     make(map[model.ObjectID]model.Version, len(t.readVers)),
		Writes:    make(map[model.ObjectID]model.Version, len(t.writeVers)),
	}
	for o, v := range t.readVers {
		rec.Reads[o] = v
	}
	if committed {
		for o, v := range t.writeVers {
			rec.Writes[o] = v
		}
	}
	return rec
}

// finish reports the outcome to the client and the history. For commits
// with pending acks the txn stays active (retransmitting Decide) but is
// already reported: the decision is durable.
func (b *Base) finish(rt net.Runtime, t *txn, committed bool, reason string) {
	if committed {
		rt.Metrics().Inc(metrics.CTxnCommit, 1)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnCommit, VP: t.epoch.VP, Txn: t.id})
	} else {
		rt.Metrics().Inc(metrics.CTxnAbort, 1)
		rt.Tracer().Record(trace.Event{At: rt.Now(), Proc: b.ID, Kind: trace.EvTxnAbort, VP: t.epoch.VP, Txn: t.id, Msg: reason})
	}
	if b.Hist != nil {
		b.Hist.Record(b.histRecord(t, committed))
	}
	var reads, writes []wire.ObjVal
	if committed {
		objs := model.NewObjSet()
		for o := range t.regs {
			objs.Add(o)
		}
		for _, o := range objs.Sorted() {
			reads = append(reads, wire.ObjVal{Obj: o, Val: t.regs[o], Ver: t.readVers[o]})
		}
		wobjs := model.NewObjSet()
		for o := range t.writes {
			wobjs.Add(o)
		}
		for _, o := range wobjs.Sorted() {
			writes = append(writes, wire.ObjVal{Obj: o, Val: t.writes[o], Ver: t.writeVers[o]})
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
