// Package rowa implements read-one/write-ALL replica control: logical
// reads touch the nearest copy, logical writes must reach every copy of
// the object. It is the classical fault-intolerant baseline — cheapest
// possible reads, but a single unreachable copy blocks all writes — and
// serves as the availability floor in the experiments.
package rowa

import (
	"errors"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// New constructs a ROWA node.
func New(id model.ProcID, cfg node.Config, cat *model.Catalog, hist *onecopy.History) node.SimpleNode {
	return node.NewSimpleNode(node.NewBase(id, cfg, cat, &strategy{cat: cat}, hist, nil))
}

type strategy struct {
	cat *model.Catalog
}

var errUnknown = errors.New("unknown object")

func (s *strategy) Name() string { return "rowa" }

func (s *strategy) Begin(rt net.Runtime, _ model.ShardID) (node.Epoch, error) {
	return node.Epoch{}, nil
}

func (s *strategy) StillValid(rt net.Runtime, _ model.ShardID, e node.Epoch) bool { return true }

func (s *strategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	copies := s.cat.Copies(obj)
	if copies == 0 {
		return node.Plan{}, errUnknown
	}
	best := model.NoProc
	var bestD time.Duration
	for _, p := range copies.Sorted() {
		if d := rt.Distance(p); best == model.NoProc || d < bestD {
			best, bestD = p, d
		}
	}
	return node.AllOf(s.cat, obj, []model.ProcID{best}), nil
}

func (s *strategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	copies := s.cat.Copies(obj)
	if copies == 0 {
		return node.Plan{}, errUnknown
	}
	plan := node.AllOf(s.cat, obj, copies.Sorted())
	plan.LockAtPrepare = true // write-all: every copy carries every write
	return plan, nil
}

func (s *strategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

func (s *strategy) AcceptAccess(rt net.Runtime, e node.Epoch) bool { return true }

func (s *strategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
}
