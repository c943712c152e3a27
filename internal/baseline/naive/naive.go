// Package naive implements the "clean environment" replica control rules
// of §4 of the paper WITHOUT the virtual partition discipline: each
// processor keeps a local view, checks the (weighted) majority rule
// against it, reads the nearest copy in the view and writes all copies in
// the view — but views are updated unilaterally and there is no
// partition-membership check on physical accesses (no rule R4), no
// creation protocol (no S3) and no copy refresh (no R5).
//
// Under assumptions A2 (cliques) and A3 (perfect views) these rules are
// correct. The package exists to demonstrate — executably — the paper's
// Examples 1 and 2: with a non-transitive communication graph or with
// asynchronous view updates, the naive rules produce executions that are
// not one-copy serializable. Tests and benchmarks script the views
// through SetView, playing the role of A3's instantaneous detector (or a
// deliberately skewed version of it).
package naive

import (
	"errors"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Node is a naive-protocol processor.
type Node struct {
	node.SimpleNode
	strat *strategy
}

type strategy struct {
	cat  *model.Catalog
	view model.ProcSet
}

// New constructs a naive node whose initial view contains every
// processor known to the catalog's placements — callers normally reset
// it with SetView.
func New(id model.ProcID, cfg node.Config, cat *model.Catalog, hist *onecopy.History, initial model.ProcSet) *Node {
	s := &strategy{cat: cat, view: initial}
	base := node.NewBase(id, cfg, cat, s, hist, nil)
	return &Node{SimpleNode: node.NewSimpleNode(base), strat: s}
}

// SetView replaces the node's local view, unilaterally — exactly the
// behavior that Examples 1 and 2 exploit.
func (n *Node) SetView(view model.ProcSet) { n.strat.view = view }

// View returns the current local view.
func (n *Node) View() model.ProcSet { return n.strat.view }

var errInaccessible = errors.New("no majority of copies in view")

func (s *strategy) Name() string { return "naive-views" }

func (s *strategy) Begin(rt net.Runtime, _ model.ShardID) (node.Epoch, error) {
	return node.Epoch{}, nil
}

func (s *strategy) StillValid(rt net.Runtime, _ model.ShardID, e node.Epoch) bool { return true }

func (s *strategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	if !s.cat.Accessible(obj, s.view) {
		return node.Plan{}, errInaccessible
	}
	best := model.NoProc
	var bestD time.Duration
	for _, p := range (s.cat.Copies(obj) & s.view).Sorted() {
		d := rt.Distance(p)
		if best == model.NoProc || d < bestD {
			best, bestD = p, d
		}
	}
	return node.AllOf(s.cat, obj, []model.ProcID{best}), nil
}

func (s *strategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	if !s.cat.Accessible(obj, s.view) {
		return node.Plan{}, errInaccessible
	}
	return node.AllOf(s.cat, obj, (s.cat.Copies(obj) & s.view).Sorted()), nil
}

func (s *strategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

// AcceptAccess always admits: there is no partition discipline — the
// heart of why the naive protocol is broken.
func (s *strategy) AcceptAccess(rt net.Runtime, e node.Epoch) bool { return true }

func (s *strategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
}
