package core

import (
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/store"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Mergeable-counter mode: the §7 integration claim, executable.
//
// §7 observes that data management schemes designed for partitioned
// operation — the paper cites Blaustein et al. [BGRCK] and Davidson [D],
// which keep *every* partition processing updates and reconcile at merge
// — "require nothing stronger than properties S1 through S3" and "can
// use the virtual partition management protocol to detect virtual
// partitions and operate on them as if they were real partitions."
//
// This file implements such a scheme for commutative (counter) updates
// on top of the unmodified view machinery of vpm.go:
//
//   - Accessibility drops the majority rule: ANY copy in the view makes
//     the object readable and writable, so minority partitions — even a
//     single isolated processor — keep accepting increments.
//   - Within a partition, processing is unchanged: strict 2PL, 2PC,
//     write-all-in-view, serializable. A write ships as a DELTA (the
//     written value minus the value the transaction read) charged to the
//     coordinator's per-writer component (wire.CompEntry): the object's
//     value is the sum of all components.
//   - When partitions merge, Update-Copies-in-View reconciles components
//     instead of taking the newest date: per writer, the entry with the
//     greater version wins. A processor belongs to one partition at a
//     time, so its component history is totally ordered — the pointwise
//     merge neither loses an increment nor applies one twice, no matter
//     how partitions split, churn, or partially merge.
//
// The trade, exactly as in [BGRCK]/[D]: executions are no longer
// one-copy serializable across partitions (two isolated increments both
// read stale values), but for commutative updates the merged state is
// what a serial execution of the same increments would have produced.
// Experiment E16 measures the availability gained and verifies the
// no-lost-updates invariant.

// setView makes view the local view and decides the accessibility rule
// for every copy set in it: weighted majority (R1) in normal mode,
// any-copy-in-view in mergeable mode.
func (n *Node) setView(view model.ProcSet) {
	n.lview = view
	n.targets = NewTargets(n.Cat, view, n.cfg.Mergeable)
}

// objAccessible reports whether obj is accessible in the local view.
func (n *Node) objAccessible(obj model.ObjectID) bool {
	return n.targets.of(n.Cat, obj) != nil
}

// UseDeltaWrites implements node.DeltaWriter: in mergeable mode writes
// are shipped as component increments.
func (s *vpStrategy) UseDeltaWrites() bool { return s.node().cfg.Mergeable }

// compsOf exports the local components for a recovery response.
func (n *Node) compsOf(obj model.ObjectID) []wire.CompEntry {
	comps := n.Store.Comps(obj)
	out := make([]wire.CompEntry, 0, len(comps))
	for _, p := range procsOfComps(comps) {
		c := comps[p]
		out = append(out, wire.CompEntry{P: p, Ver: c.Ver, Total: c.Total})
	}
	return out
}

func procsOfComps(m map[model.ProcID]store.Comp) []model.ProcID {
	out := make([]model.ProcID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// mergeGathered folds the components collected from peers into the local
// copy at the end of a refresh.
func (n *Node) mergeGathered(rt net.Runtime, obj model.ObjectID, gathered []wire.CompEntry) {
	remote := make(map[model.ProcID]store.Comp, len(gathered))
	for _, e := range gathered {
		if cur, ok := remote[e.P]; !ok || cur.Ver.Less(e.Ver) {
			remote[e.P] = store.Comp{Ver: e.Ver, Total: e.Total}
		}
	}
	maxCtr := n.Store.Get(obj).Ver.Ctr
	for _, c := range remote {
		if c.Ver.Ctr > maxCtr {
			maxCtr = c.Ver.Ctr
		}
	}
	stamp := model.Version{Date: n.curID, Ctr: maxCtr + 1}
	if n.Store.MergeComps(obj, remote, stamp) {
		rt.Metrics().Inc(metrics.CMergeCombined, 1)
	}
}
