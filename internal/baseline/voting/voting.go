// Package voting implements quorum-based replica control: Gifford's
// weighted voting [G] with configurable read/write quorums, of which
// Thomas's majority consensus [T] is the special case r = w = majority.
//
// A logical read locks and reads a read quorum of copies and returns the
// value with the highest version; a logical write locks a write quorum
// and installs version max+1 on it. r + w must exceed the total weight so
// any read quorum intersects any write quorum; 2w > total so two write
// quorums intersect.
//
// Two operating modes:
//
//   - minimal (default): each access contacts exactly a nearest quorum of
//     copies; if any member fails to respond the access aborts. This is
//     the textbook cost model — r (or w) physical accesses per logical
//     access — and is what the paper's cost comparison (§1) refers to.
//   - eager: each access contacts ALL copies and proceeds as soon as a
//     quorum grants. This trades extra messages for availability and is
//     used in the availability experiments.
package voting

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Options configures the quorum strategy.
type Options struct {
	// ReadWeight returns the read quorum weight r for a placement.
	// Nil means majority: floor(total/2) + 1.
	ReadWeight func(pl *model.Placement) int
	// WriteWeight returns the write quorum weight w. Nil means majority.
	WriteWeight func(pl *model.Placement) int
	// Eager switches to contact-all/early-quorum mode.
	Eager bool
}

// Majority returns the strict majority weight for a placement.
func Majority(pl *model.Placement) int { return pl.TotalWeight()/2 + 1 }

// New constructs a quorum-consensus node.
func New(id model.ProcID, cfg node.Config, cat *model.Catalog, hist *onecopy.History, opts Options) node.SimpleNode {
	if opts.ReadWeight == nil {
		opts.ReadWeight = Majority
	}
	if opts.WriteWeight == nil {
		opts.WriteWeight = Majority
	}
	s := &strategy{cat: cat, opts: opts}
	return node.NewSimpleNode(node.NewBase(id, cfg, cat, s, hist, nil))
}

type strategy struct {
	cat  *model.Catalog
	opts Options
}

var errUnknown = errors.New("unknown object")

func (s *strategy) Name() string {
	if s.opts.Eager {
		return "quorum-eager"
	}
	return "quorum"
}

func (s *strategy) Begin(rt net.Runtime, _ model.ShardID) (node.Epoch, error) {
	return node.Epoch{}, nil
}

func (s *strategy) StillValid(rt net.Runtime, _ model.ShardID, e node.Epoch) bool { return true }

// nearestQuorum picks holders in ascending distance until the weight
// threshold is met.
func nearestQuorum(rt net.Runtime, pl *model.Placement, need int) ([]model.ProcID, error) {
	holders := pl.Holders.Sorted()
	sort.SliceStable(holders, func(i, j int) bool {
		return rt.Distance(holders[i]) < rt.Distance(holders[j])
	})
	var out []model.ProcID
	w := 0
	for _, p := range holders {
		out = append(out, p)
		w += pl.Weight(p)
		if w >= need {
			return out, nil
		}
	}
	return nil, fmt.Errorf("voting: quorum %d exceeds total weight %d", need, w)
}

func (s *strategy) plan(rt net.Runtime, obj model.ObjectID, need func(*model.Placement) int) (node.Plan, error) {
	pl := s.cat.Placement(obj)
	if pl == nil {
		return node.Plan{}, errUnknown
	}
	w := need(pl)
	if s.opts.Eager {
		return node.Plan{
			Targets:     pl.Holders.Sorted(),
			MinWeight:   w,
			EarlyQuorum: true,
		}, nil
	}
	targets, err := nearestQuorum(rt, pl, w)
	if err != nil {
		return node.Plan{}, err
	}
	// Minimal mode: every selected member must grant.
	return node.AllOf(s.cat, obj, targets), nil
}

func (s *strategy) ReadPlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	return s.plan(rt, obj, s.opts.ReadWeight)
}

func (s *strategy) WritePlan(rt net.Runtime, obj model.ObjectID) (node.Plan, error) {
	return s.plan(rt, obj, s.opts.WriteWeight)
}

func (s *strategy) EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID {
	return nil
}

func (s *strategy) AcceptAccess(rt net.Runtime, e node.Epoch) bool { return true }

func (s *strategy) OnNoResponse(rt net.Runtime, _ model.ShardID, suspects []model.ProcID, sent time.Duration) {
}
