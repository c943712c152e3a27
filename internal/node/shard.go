package node

import (
	"sort"

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

// partSet is a set of participants.
type partSet map[partKey]struct{}

func newPartSet() partSet { return make(partSet) }

func (s partSet) Has(k partKey) bool {
	_, ok := s[k]
	return ok
}

func (s partSet) Add(k partKey)    { s[k] = struct{}{} }
func (s partSet) Remove(k partKey) { delete(s, k) }
func (s partSet) Len() int         { return len(s) }

func (s partSet) Clone() partSet {
	c := make(partSet, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

func (s partSet) Equal(t partSet) bool {
	if len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t.Has(k) {
			return false
		}
	}
	return true
}

// Sorted returns the members ordered by (processor, shard). With every
// shard zero this is exactly the processor order the unsharded
// coordinator used, which keeps its fan-out sequences byte-identical.
func (s partSet) Sorted() []partKey {
	out := make([]partKey, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].S < out[j].S
	})
	return out
}

// splitParts separates sorted participant keys into the parallel
// processor and shard slices the durable journal records. The shard
// slice is nil when every participant is unsharded, so unsharded
// journal bytes are unchanged.
func splitParts(parts []partKey) ([]model.ProcID, []model.ShardID) {
	procs := make([]model.ProcID, len(parts))
	sharded := false
	for i, k := range parts {
		procs[i] = k.P
		if k.S != model.NoShard {
			sharded = true
		}
	}
	if !sharded {
		return procs, nil
	}
	shards := make([]model.ShardID, len(parts))
	for i, k := range parts {
		shards[i] = k.S
	}
	return procs, shards
}

func sortShardIDs(ss []model.ShardID) {
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
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
	for _, s := range t.shards {
		if !b.Strat.StillValid(rt, s, t.epochs[s]) {
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
	ids := make([]model.TxnID, 0, len(b.active))
	for id := range b.active {
		ids = append(ids, id)
	}
	sortTxnIDs(ids)
	for _, id := range ids {
		t := b.active[id]
		if !t.undecided() {
			continue // decided, or the votes' to decide: keep at it
		}
		if _, ok := t.epochs[s]; ok {
			b.abortTxn(rt, t, abortEpochChanged, reason)
		}
	}
}
