package shard

import (
	"errors"
	"fmt"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

// routerStrategy is the coordinator's replica control in a sharded
// deployment: rules R1–R4 applied shard by shard. For a hosted shard it
// delegates to the shard node's own virtual-partition strategy (live
// view, exact R1 test); for a non-hosted shard it plans from the epoch
// cache, whose staleness is caught by the server-side R4 check and the
// commit-time StillValid re-validation.
type routerStrategy struct {
	r *Router
}

var (
	_ node.Strategy = (*routerStrategy)(nil)
	_ node.Sharder  = (*routerStrategy)(nil)
)

// errEpochUnknown denies a transaction whose shard's epoch is not yet
// cached; the cache request it triggers makes a client retry succeed.
var errEpochUnknown = errors.New("shard epoch not yet known (retry)")

func (st *routerStrategy) Name() string { return "sharded-vp" }

// ReadPlan implements node.Strategy: rule R2 within the owning shard —
// the nearest copy in that shard's view.
func (st *routerStrategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	s := st.r.m.ShardOf(obj)
	if n := st.r.nodes[s]; n != nil {
		return n.Strategy().ReadPlan(st.r.shardRT(rt, s), obj)
	}
	return st.r.remotePlan(rt, s, obj, model.LockShared)
}

// WritePlan implements node.Strategy: rule R3 within the owning shard —
// all copies in that shard's view.
func (st *routerStrategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	s := st.r.m.ShardOf(obj)
	if n := st.r.nodes[s]; n != nil {
		return n.Strategy().WritePlan(st.r.shardRT(rt, s), obj)
	}
	return st.r.remotePlan(rt, s, obj, model.LockExclusive)
}

// EscalateRead implements node.Strategy: like the unsharded protocol,
// read-one holds under failures — no escalation.
func (st *routerStrategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

// AcceptAccess implements node.Strategy. The router's coordinator never
// serves physical accesses itself — those all carry shard frames and go
// to the shard nodes, whose own strategies enforce R4.
func (st *routerStrategy) AcceptAccess(rt net.Runtime, e node.Epoch) bool { return false }

// ShardOf implements node.Sharder.
func (st *routerStrategy) ShardOf(obj model.ObjectID) model.ShardID {
	return st.r.m.ShardOf(obj)
}

// Begin implements node.Strategy: the epoch pin of rule R4, taken per
// shard at transaction start. A shard inaccessible from here denies the
// transaction (rule R1 at transaction start).
func (st *routerStrategy) Begin(rt net.Runtime, s model.ShardID) (node.Epoch, error) {
	if n := st.r.nodes[s]; n != nil {
		if n.Halted() || !n.Assigned() {
			return node.Epoch{}, fmt.Errorf("shard %v inaccessible: %w", s, core.ErrNotAssigned)
		}
		return node.Epoch{VP: n.CurID(), Has: true}, nil
	}
	c := st.r.caches[s]
	if c == nil || !c.has {
		st.r.requestEpoch(rt, s)
		return node.Epoch{}, fmt.Errorf("shard %v inaccessible: %w", s, errEpochUnknown)
	}
	return node.Epoch{VP: c.vp, Has: true}, nil
}

// StillValid implements node.Strategy: the commit-time R4 re-check, per
// pinned shard.
func (st *routerStrategy) StillValid(rt net.Runtime, s model.ShardID, e node.Epoch) bool {
	if !e.Has {
		return false
	}
	if n := st.r.nodes[s]; n != nil {
		return !n.Halted() && n.Assigned() && n.CurID() == e.VP
	}
	c := st.r.caches[s]
	return c != nil && c.has && c.vp == e.VP
}

// OnNoResponse implements node.Strategy: the paper's no-response
// exception, scoped to the shard whose plan timed out. A hosted shard
// reacts exactly as the unsharded protocol (Create-new-VP among the
// shard's members); for a non-hosted shard the cached epoch is suspect,
// so it is dropped and refetched.
func (st *routerStrategy) OnNoResponse(rt net.Runtime, s model.ShardID, suspects []model.ProcID, sent time.Duration) {
	if n := st.r.nodes[s]; n != nil {
		n.Strategy().OnNoResponse(st.r.shardRT(rt, s), model.NoShard, suspects, sent)
		return
	}
	if c := st.r.caches[s]; c != nil {
		c.has = false
	}
	st.r.requestEpoch(rt, s)
}

// remotePlan plans a physical access against a shard this processor
// does not host from the cached epoch's view, with the planner a hosted
// shard node uses (core.Targets): nearest copy in view for a read (R2),
// all copies in view for a write (R3), refusal when the cached view holds
// no weighted majority of the object's copies (R1).
func (r *Router) remotePlan(rt net.Runtime, s model.ShardID, obj model.ObjectID, mode model.LockMode) (node.Plan, error) {
	c := r.caches[s]
	if c == nil || !c.has {
		r.requestEpoch(rt, s)
		return node.Plan{}, errEpochUnknown
	}
	cat := r.m.ShardCatalog(s)
	if mode == model.LockShared {
		return c.targets.ReadPlan(rt, cat, obj)
	}
	plan, err := c.targets.WritePlan(cat, obj)
	plan.LockAtPrepare = err == nil // as the shard's own strategy says of its view
	return plan, err
}
