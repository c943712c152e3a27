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

// ReadPlan implements node.Strategy: Logical-Read of Figure 10. The
// nearest copy in the view is selected by network distance with the
// processor itself at distance zero, so a local copy is always preferred.
func (s *vpStrategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	n := s.node()
	if !n.assigned {
		return node.Plan{}, ErrNotAssigned
	}
	if !n.objAccessible(obj) {
		return node.Plan{}, ErrInaccessible
	}
	candidates := n.Cat.Copies(obj).Intersect(n.lview)
	best := model.NoProc
	var bestD time.Duration
	for _, p := range candidates.Sorted() {
		d := rt.Distance(p)
		if best == model.NoProc || d < bestD {
			best, bestD = p, d
		}
	}
	if best == model.NoProc {
		// Accessible implies a majority of copies in view, so this
		// cannot happen; defend anyway.
		return node.Plan{}, ErrInaccessible
	}
	return node.AllOf(n.Cat, obj, []model.ProcID{best}), nil
}

// WritePlan implements node.Strategy: Logical-Write of Figure 11 — all
// copies on processors in the view, every one of which must succeed.
func (s *vpStrategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	n := s.node()
	if !n.assigned {
		return node.Plan{}, ErrNotAssigned
	}
	if !n.objAccessible(obj) {
		return node.Plan{}, ErrInaccessible
	}
	targets := n.Cat.Copies(obj).Intersect(n.lview).Sorted()
	plan := node.AllOf(n.Cat, obj, targets)
	// Rule R5 made every copy in the view current before it became
	// readable and rule R3 has kept them in step since, so the version a
	// read returned is every target's version. Not so for mergeable
	// counters, whose copies merge by component and need not agree on it.
	plan.LockAtPrepare = !n.cfg.Mergeable
	return plan, nil
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
