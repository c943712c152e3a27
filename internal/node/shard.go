package node

import (
	"cmp"
	"slices"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

// This file is the multi-shard extension of the coordinator: in a
// sharded deployment (internal/shard) every logical object lives in
// exactly one shard, each shard runs its own virtual-partition
// lifecycle, and one transaction may span several shards. The
// coordinator then addresses participants as (processor, shard) pairs,
// pins one epoch per touched shard (rule R4 applied shard by shard),
// and wraps each participant-bound message in a wire.ShardMsg frame so
// the receiving router can hand it to the right shard node. Without a
// Sharder everything here is shard zero (model.NoShard): keys sort as
// bare processor ids, the transaction pins one epoch, and messages
// travel unwrapped — the unsharded protocol byte for byte.

// partKey identifies one transaction participant: a processor plus the
// shard it acts for. The same processor can participate twice in one
// transaction — once per shard it hosts — and the two roles vote and
// acknowledge independently.
type partKey struct {
	P model.ProcID
	S model.ShardID
}

func (k partKey) cmp(o partKey) int {
	if k.P != o.P {
		return cmp.Compare(k.P, o.P)
	}
	return cmp.Compare(k.S, o.S)
}

// txnPart is what a transaction knows of one participant. With every
// shard zero, the (processor, shard) order of a transaction's parts is
// the processor order the unsharded coordinator always used, which keeps
// its fan-out sequences byte-identical.
type txnPart struct {
	partKey
	shared bool // granted a shared lock
	// writes is the participant's prepare. Non-nil makes it a voter: a
	// participant of the commit, whose vote and then ack are waited for.
	// A restart that knows the voters but not their writes (InitBase)
	// gives them noWrites.
	writes []wire.ObjWrite
	voted  bool
	acked  bool
}

// noWrites is the prepare of a voter restored from the journal.
var noWrites = []wire.ObjWrite{}

func (p *txnPart) voter() bool { return p.writes != nil }

// awaitsAck reports whether the decision waits for p's ack.
func (p *txnPart) awaitsAck() bool { return p.voter() && !p.acked }

// findPart returns t's record of participant k, or nil.
func (t *txn) findPart(k partKey) *txnPart {
	if i, ok := t.partIndex(k); ok {
		return &t.parts[i]
	}
	return nil
}

// part returns t's record of participant k, adding it if t has none.
// The pointer is good until the next part.
func (t *txn) part(k partKey) *txnPart {
	i, ok := t.partIndex(k)
	if !ok {
		t.parts = slices.Insert(t.parts, i, txnPart{partKey: k})
	}
	return &t.parts[i]
}

func (t *txn) partIndex(k partKey) (int, bool) {
	return slices.BinarySearchFunc(t.parts, k, func(p txnPart, k partKey) int { return p.cmp(k) })
}

// voterList lists the voters as the durable journal records them:
// parallel processor and shard slices. The shard slice is nil when
// every voter is unsharded, so unsharded journal bytes are unchanged.
func (t *txn) voterList() ([]model.ProcID, []model.ShardID) {
	procs := make([]model.ProcID, 0, t.voters)
	sharded := false
	for _, p := range t.parts {
		if p.voter() {
			procs = append(procs, p.P)
			sharded = sharded || p.S != model.NoShard
		}
	}
	if !sharded {
		return procs, nil
	}
	shards := make([]model.ShardID, 0, len(procs))
	for _, p := range t.parts {
		if p.voter() {
			shards = append(shards, p.S)
		}
	}
	return procs, shards
}

// shardWrap tags m for shard s. Shard zero means the message travels
// bare, exactly as before sharding existed.
func shardWrap(s model.ShardID, m wire.Message) wire.Message {
	if s == model.NoShard {
		return m
	}
	return wire.ShardMsg{Shard: s, Msg: m}
}

// sendPart sends m to participant k under the given trace context.
func (b *Base) sendPart(rt net.Runtime, k partKey, m wire.Message, ctx model.TraceCtx) {
	rt.SendCtx(k.P, shardWrap(k.S, m), ctx)
}

// sendPartPlain sends m to participant k under the ambient context.
func (b *Base) sendPartPlain(rt net.Runtime, k partKey, m wire.Message) {
	rt.Send(k.P, shardWrap(k.S, m))
}

// shardOf maps an object to its shard; zero when unsharded.
func (b *Base) shardOf(obj model.ObjectID) model.ShardID {
	if b.sharded == nil {
		return model.NoShard
	}
	return b.sharded.ShardOf(obj)
}

// stillValid re-checks every epoch the transaction pinned (rule R4): a
// transaction commits only if no shard it touched changed partitions
// underneath it.
func (b *Base) stillValid(rt net.Runtime, t *txn) bool {
	for _, e := range t.epochs {
		if !b.Strat.StillValid(rt, e.shard, e.ep) {
			return false
		}
	}
	return true
}

// HandleShardMessage processes a coordinator-bound reply that arrived
// wrapped in a shard frame. The embedding router unwraps the frame and
// passes the shard tag so the handlers can key participant state by
// (processor, shard). Messages not owned by the coordinator return
// false for the caller to route elsewhere.
func (b *Base) HandleShardMessage(rt net.Runtime, from model.ProcID, s model.ShardID, m wire.Message) bool {
	if b.halted {
		return true
	}
	switch msg := m.(type) {
	case wire.LockResp:
		b.handleLockResp(rt, from, s, msg)
	case wire.Vote:
		b.handleVote(rt, from, s, msg)
	case wire.DecideAck:
		b.handleDecideAck(rt, from, s, msg)
	case wire.DecideQuery:
		b.handleDecideQuery(rt, from, s, msg)
	default:
		return false
	}
	return true
}

// ShardEpochChanged aborts every undecided transaction that pinned an
// epoch for shard s — rule R4 scoped to one shard (model.NoShard: every
// transaction of an unsharded node). Transactions whose footprint
// avoids the shard keep running: that isolation is the point of
// per-shard virtual partitions.
func (b *Base) ShardEpochChanged(rt net.Runtime, s model.ShardID, reason string) {
	for _, id := range model.SortedTxns(b.active) {
		t := b.active[id]
		if !t.undecided() {
			continue // decided, or the votes' to decide: keep at it
		}
		if _, ok := t.epochAt(s); ok {
			b.abortTxn(rt, t, abortEpochChanged, reason)
		}
	}
}
