package core

import (
	"errors"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/wire"
)

// vpStrategy exposes the Node's virtual-partition state to the shared
// transaction machinery as a node.Strategy. It implements rules R1–R4:
//
//	R1 (majority rule)       — ReadPlan/WritePlan refuse inaccessible objects
//	R2 (read rule)           — ReadPlan targets the nearest copy in the view
//	R3 (write rule)          — WritePlan targets all copies in the view
//	R4 (single partition)    — Begin/StillValid/AcceptAccess pin an epoch
type vpStrategy Node

var _ node.Strategy = (*vpStrategy)(nil)

func (s *vpStrategy) node() *Node { return (*Node)(s) }

// Name implements node.Strategy.
func (s *vpStrategy) Name() string { return "virtual-partitions" }

// ErrNotAssigned is returned while the processor is between partitions.
var ErrNotAssigned = errors.New("processor not assigned to a virtual partition")

// ErrInaccessible is returned when rule R1 refuses an object.
var ErrInaccessible = errors.New("no majority of copies in view")

// Begin implements node.Strategy.
func (s *vpStrategy) Begin(rt net.Runtime, _ model.ShardID) (node.Epoch, error) {
	n := s.node()
	if !n.assigned {
		return node.Epoch{}, ErrNotAssigned
	}
	return node.Epoch{VP: n.curID, Has: true}, nil
}

// StillValid implements node.Strategy (rule R4 at the coordinator).
func (s *vpStrategy) StillValid(rt net.Runtime, _ model.ShardID, e node.Epoch) bool {
	n := s.node()
	return n.assigned && e.Has && e.VP == n.curID
}

// Targets is the accessibility rule of one view, decided once per copy
// set of a catalog: Targets[i] lists, ascending, the holders of copy set
// i (model.Catalog.SetIndex) that are in the view, and is nil when the
// rule refuses the set. Every view gets fresh slices, so a plan built
// under an earlier view keeps its targets.
type Targets [][]model.ProcID

// NewTargets decides the rule for every copy set of cat in view:
// weighted majority (R1), or in mergeable mode any copy in the view.
func NewTargets(cat *model.Catalog, view model.ProcSet, mergeable bool) Targets {
	ts := make(Targets, len(cat.Sets()))
	for i, pl := range cat.Sets() {
		if in := pl.Holders & view; in != 0 && (mergeable || pl.AccessibleIn(view)) {
			ts[i] = in.Sorted()
		}
	}
	return ts
}

// of returns the in-view holders of obj's copy set: nil when the rule
// refuses it or obj is not in cat.
func (ts Targets) of(cat *model.Catalog, obj model.ObjectID) []model.ProcID {
	if i := cat.SetIndex(obj); i >= 0 {
		return ts[i]
	}
	return nil
}

// ReadPlan is Logical-Read of Figure 10 over ts: the nearest copy in the
// view (R2), by network distance with the processor itself at distance
// zero, so a local copy is always preferred. The target is a one-element
// subslice clipped to its length: a coordinator that appends to it
// (EscalateRead) copies instead of writing into ts.
func (ts Targets) ReadPlan(rt net.Runtime, cat *model.Catalog, obj model.ObjectID) (node.Plan, error) {
	t := ts.of(cat, obj)
	if t == nil {
		return node.Plan{}, ErrInaccessible
	}
	j, bestD := 0, rt.Distance(t[0])
	for i := 1; i < len(t); i++ {
		if d := rt.Distance(t[i]); d < bestD {
			j, bestD = i, d
		}
	}
	return node.AllOf(cat, obj, t[j:j+1:j+1]), nil
}

// WritePlan is Logical-Write of Figure 11 over ts: all copies on
// processors in the view (R3), every one of which must succeed.
func (ts Targets) WritePlan(cat *model.Catalog, obj model.ObjectID) (node.Plan, error) {
	t := ts.of(cat, obj)
	if t == nil {
		return node.Plan{}, ErrInaccessible
	}
	return node.AllOf(cat, obj, t), nil
}

// ReadPlan implements node.Strategy (rules R1 and R2).
func (s *vpStrategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	n := s.node()
	if !n.assigned {
		return node.Plan{}, ErrNotAssigned
	}
	return n.targets.ReadPlan(rt, n.Cat, obj)
}

// WritePlan implements node.Strategy (rules R1 and R3).
func (s *vpStrategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	n := s.node()
	if !n.assigned {
		return node.Plan{}, ErrNotAssigned
	}
	plan, err := n.targets.WritePlan(n.Cat, obj)
	// Rule R5 made every copy in the view current before it became
	// readable and rule R3 has kept them in step since, so the version a
	// read returned is every target's version. Not so for mergeable
	// counters, whose copies merge by component and need not agree on it.
	plan.LockAtPrepare = err == nil && !n.cfg.Mergeable
	return plan, err
}

// EscalateRead implements node.Strategy: the VP protocol never escalates
// — read-one holds even in the presence of failures (§1).
func (s *vpStrategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

// AcceptAccess implements node.Strategy: the server half of rule R4
// (Figure 12, "if assigned & v = cur-id").
func (s *vpStrategy) AcceptAccess(rt net.Runtime, e node.Epoch) bool {
	n := s.node()
	return n.assigned && e.Has && e.VP == n.curID
}

// InTransition implements node.TransitionAware: under weak R4, a
// processor between partitions parks traffic instead of refusing it, so
// migratable transactions survive the changeover. Strict R4 keeps the
// paper's behavior (refuse, abort).
func (s *vpStrategy) InTransition(rt net.Runtime) bool {
	n := s.node()
	return n.cfg.WeakR4 && !n.assigned
}

// Strategy exposes the node's replica-control strategy so an embedding
// router (internal/shard) can delegate per-shard access planning and
// no-response handling to the shard's own virtual-partition state.
func (n *Node) Strategy() node.Strategy { return (*vpStrategy)(n) }

// OnNoResponse implements node.Strategy: the no-response exception of
// Figures 10–11 triggers the creation of a new virtual partition. The
// accesses — lock requests, or prepares with locks to take — went out at
// sent; a suspect heard from since then is not missing, it is keeping the
// access waiting — behind a lock, or behind the R5 refresh of a copy
// whose last write is still in doubt. That costs the transaction. A new
// partition would not end the wait, only abort everybody else, once per
// LockTimeout.
func (s *vpStrategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
	n := s.node()
	if !n.assigned {
		return
	}
	for _, p := range suspects {
		if p != rt.ID() && n.lview.Has(p) && n.heard[p] <= sent {
			rt.Logf("no response from %v: creating new partition", suspects)
			n.CreateNewVP(rt, causeNoResponse)
			return
		}
	}
}
