// Package missingwrites implements a replica control protocol in the
// style of Eager & Sevcik's "missing writes" scheme [ES], the protocol
// the paper compares itself against in §1: in the absence of failures it
// reads one copy and writes all copies; once a write fails to reach some
// copies, the reached copies are marked with the set of copies that
// missed the write, and any read that encounters a marked copy escalates
// to a (weighted) majority read until a later complete write clears the
// marks.
//
// Faithfulness note (also recorded in DESIGN.md): the original protocol
// additionally logs missing-write information in transactions and
// regains normal mode through an explicit recovery procedure. This
// implementation carries the marks on the copies themselves (shipped
// with the writes in the Prepare messages) and clears them when a write
// again reaches every copy, which preserves the property the paper's
// comparison is about — reads cost one copy only while no failure is
// outstanding, and majority-sized reads while one is. Its correctness
// envelope is crash/recovery failures (a crashed copy serves nothing);
// under partitions it inherits the same stale-read exposure the paper
// ascribes to all majority-style schemes without partition detection, so
// experiments use it in crash scenarios.
package missingwrites

import (
	"errors"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Node is a missing-writes processor.
type Node struct {
	node.SimpleNode
	strat *strategy
}

// New constructs a missing-writes node. suspectTTL bounds how long a
// non-responding processor is written around before being retried
// (default 10 lock timeouts).
func New(id model.ProcID, cfg node.Config, cat *model.Catalog, hist *onecopy.History, suspectTTL time.Duration) *Node {
	cfg = cfg.WithDefaults()
	if suspectTTL <= 0 {
		suspectTTL = 10 * cfg.LockTimeout
	}
	s := &strategy{cat: cat, ttl: suspectTTL, suspects: map[model.ProcID]time.Duration{}}
	base := node.NewBase(id, cfg, cat, s, hist)
	return &Node{SimpleNode: node.NewSimpleNode(base), strat: s}
}

// Suspects returns the processors currently written around (for tests).
func (n *Node) Suspects() []model.ProcID {
	return model.SortedKeys(n.strat.suspects)
}

type strategy struct {
	cat      *model.Catalog
	ttl      time.Duration
	suspects map[model.ProcID]time.Duration // proc → expiry
}

var errUnknown = errors.New("unknown object")
var errNoMajority = errors.New("fewer than a majority of copies believed reachable")

func (s *strategy) Name() string { return "missing-writes" }

func (s *strategy) Begin(rt net.Runtime, _ model.ShardID) (node.Epoch, error) {
	return node.Epoch{}, nil
}

func (s *strategy) StillValid(rt net.Runtime, _ model.ShardID, e node.Epoch) bool { return true }

func (s *strategy) alive(rt net.Runtime, p model.ProcID) bool {
	exp, ok := s.suspects[p]
	if !ok {
		return true
	}
	if rt.Now() >= exp {
		delete(s.suspects, p)
		return true
	}
	return false
}

func (s *strategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	pl := s.cat.Placement(obj)
	if pl == nil {
		return node.Plan{}, errUnknown
	}
	// Read-one: the nearest copy believed alive. Escalation to a
	// majority happens in EscalateRead when the copy carries marks.
	best := model.NoProc
	var bestD time.Duration
	for _, p := range pl.Holders.Sorted() {
		if !s.alive(rt, p) {
			continue
		}
		if d := rt.Distance(p); best == model.NoProc || d < bestD {
			best, bestD = p, d
		}
	}
	if best == model.NoProc {
		return node.Plan{}, errNoMajority
	}
	return node.AllOf(s.cat, obj, []model.ProcID{best}), nil
}

func (s *strategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	pl := s.cat.Placement(obj)
	if pl == nil {
		return node.Plan{}, errUnknown
	}
	// Write all copies believed alive; require a (weighted) majority of
	// ALL copies. Suspected copies become "missed" (the coordinator
	// records them in the Prepare's MissedBy).
	var targets []model.ProcID
	w := 0
	for _, p := range pl.Holders.Sorted() {
		if s.alive(rt, p) {
			targets = append(targets, p)
			w += pl.Weight(p)
		}
	}
	maj := pl.TotalWeight()/2 + 1
	if w < maj {
		return node.Plan{}, errNoMajority
	}
	return node.Plan{Targets: targets, MinWeight: maj}, nil
}

// EscalateRead escalates to a majority read when the copy read first
// carries missing-write marks: the value max-versioned over a majority is
// guaranteed current because every write reached a majority.
func (s *strategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	marked := false
	for _, resp := range got {
		if resp.HasMissing {
			marked = true
			break
		}
	}
	if !marked {
		return nil
	}
	pl := s.cat.Placement(obj)
	maj := pl.TotalWeight()/2 + 1
	have := 0
	for p := range got {
		have += pl.Weight(p)
	}
	var extra []model.ProcID
	holders := pl.Holders.Sorted()
	sort.SliceStable(holders, func(i, j int) bool {
		return rt.Distance(holders[i]) < rt.Distance(holders[j])
	})
	for _, p := range holders {
		if have >= maj {
			break
		}
		if _, ok := got[p]; ok || !s.alive(rt, p) {
			continue
		}
		extra = append(extra, p)
		have += pl.Weight(p)
	}
	return extra
}

func (s *strategy) AcceptAccess(rt net.Runtime, e node.Epoch) bool { return true }

// OnNoResponse records failed processors so subsequent writes route
// around them (creating missing-write marks) instead of timing out
// again.
func (s *strategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
	for _, p := range suspects {
		s.suspects[p] = rt.Now() + s.ttl
	}
}
