package trace

import (
	"fmt"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// Trace-driven protocol audit: replay a recorded event stream through
// checkers for the paper's view-management properties and access rules.
//
//	S1 (view consistency)  — processors assigned to the same virtual
//	                         partition have identical views.
//	S2 (reflexivity)       — a processor's view contains the processor.
//	S3 (serializable VP    — each processor joins partitions in strictly
//	    creation)            increasing ≺ order, so the global creation
//	                         order embeds every local assignment order.
//	R2 (read-one)          — a committed logical read in partition v read
//	                         exactly one copy, held inside view(v).
//	R3 (write-all-in-view) — a committed logical write in partition v
//	                         targeted exactly copies(l) ∩ view(v).
//
// R2/R3 need the copy placement, which the harness records as EvPlacement
// events at the head of the trace; without them those rules are reported
// as skipped rather than silently passed.

// Violation is one observed breach of a property.
type Violation struct {
	Rule string // "S1", "S2", "S3", "R2", "R3"
	Seq  uint64 // sequence number of the offending event (0: aggregate)
	Proc model.ProcID
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violated at seq %d (%v): %s", v.Rule, v.Seq, v.Proc, v.Msg)
}

// Report is the outcome of a Check run.
type Report struct {
	Violations []Violation
	// Checked counts the facts each rule verified (joins for S1–S3,
	// logical accesses for R2/R3).
	Checked map[string]int
	// Skipped counts facts a rule could not verify (missing placement,
	// partition-free transactions, uncommitted transactions).
	Skipped map[string]int
}

// OK reports whether no rule was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) violate(rule string, seq uint64, proc model.ProcID, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Rule: rule, Seq: seq, Proc: proc, Msg: fmt.Sprintf(format, args...),
	})
}

// txnFacts accumulates what the trace says about one transaction.
type txnFacts struct {
	epoch     model.VPID
	hasEpoch  bool
	beginSeq  uint64
	coord     model.ProcID
	reads     []Event
	writes    []Event
	committed bool
}

// Check replays the events through every checker and returns the report.
// Events are processed in Seq order regardless of input order.
func Check(events []Event) *Report {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	rep := &Report{
		Checked: map[string]int{"S1": 0, "S2": 0, "S3": 0, "R2": 0, "R3": 0},
		Skipped: map[string]int{"R2": 0, "R3": 0},
	}

	// Views and assignment orders are keyed per shard: in a sharded
	// deployment every shard runs its own VP lifecycle, so S1–S3 hold
	// within a shard, not across shards. Unsharded traces put everything
	// under shard 0, reproducing the original behavior exactly.
	type shardVP struct {
		shard model.ShardID
		vp    model.VPID
	}
	type procShard struct {
		proc  model.ProcID
		shard model.ShardID
	}
	placement := map[model.ObjectID]model.ProcSet{} // holders
	views := map[shardVP]model.ProcSet{}            // first view seen per (shard, VP)
	lastJoined := map[procShard]model.VPID{}        // per-(proc, shard) last assignment
	hasJoined := map[procShard]bool{}
	txns := map[model.TxnID]*txnFacts{}
	var txnOrder []model.TxnID

	for _, e := range evs {
		switch e.Kind {
		case EvPlacement:
			placement[e.Obj] = e.Procs

		case EvVPJoin:
			view := e.Procs
			// S2: reflexivity.
			rep.Checked["S2"]++
			if !view.Has(e.Proc) {
				rep.violate("S2", e.Seq, e.Proc, "view %v of %v does not contain the processor", view, e.VP)
			}
			// S1: all views of one partition identical.
			rep.Checked["S1"]++
			vpKey := shardVP{e.Shard, e.VP}
			if prev, ok := views[vpKey]; ok {
				if prev != view {
					rep.violate("S1", e.Seq, e.Proc, "view %v of %v differs from previously seen view %v", view, e.VP, prev)
				}
			} else {
				views[vpKey] = view
			}
			// S3: strictly increasing assignment order per processor (per
			// shard: independent lifecycles have independent ≺ chains).
			rep.Checked["S3"]++
			psKey := procShard{e.Proc, e.Shard}
			if hasJoined[psKey] && !lastJoined[psKey].Less(e.VP) {
				rep.violate("S3", e.Seq, e.Proc, "joined %v after %v, breaking the ≺ creation order", e.VP, lastJoined[psKey])
			}
			lastJoined[psKey] = e.VP
			hasJoined[psKey] = true

		case EvTxnBegin:
			if _, ok := txns[e.Txn]; !ok {
				txns[e.Txn] = &txnFacts{
					epoch: e.VP, hasEpoch: e.HasEpoch(), beginSeq: e.Seq, coord: e.Proc,
				}
				txnOrder = append(txnOrder, e.Txn)
			}
		case EvTxnRead:
			if t := txns[e.Txn]; t != nil {
				t.reads = append(t.reads, e)
			}
		case EvTxnWrite:
			if t := txns[e.Txn]; t != nil {
				t.writes = append(t.writes, e)
			}
		case EvTxnCommit:
			if t := txns[e.Txn]; t != nil {
				t.committed = true
			}
		}
	}

	// R2/R3 over committed transactions that ran inside a partition. The
	// governing epoch resolves per access: a sharded transaction begins
	// with no global epoch and each access event carries the epoch (and
	// shard) it ran under; an unsharded access echoes the transaction's
	// epoch, so both resolve identically on legacy traces. An access with
	// no epoch from either source belongs to a partition-free protocol
	// and is skipped.
	accessEpoch := func(t *txnFacts, e *Event) (model.VPID, bool) {
		if e.HasEpoch() {
			return e.VP, true
		}
		return t.epoch, t.hasEpoch
	}
	for _, id := range txnOrder {
		t := txns[id]
		if !t.committed {
			rep.Skipped["R2"] += len(t.reads)
			rep.Skipped["R3"] += len(t.writes)
			continue
		}
		for i := range t.reads {
			e := &t.reads[i]
			epoch, hasEpoch := accessEpoch(t, e)
			holders, havePl := placement[e.Obj]
			view, haveView := views[shardVP{e.Shard, epoch}]
			if !hasEpoch || !haveView || !havePl {
				rep.Skipped["R2"]++
				continue
			}
			rep.Checked["R2"]++
			if e.Procs.Len() != 1 {
				rep.violate("R2", e.Seq, e.Proc, "logical read of %s in %v used %d physical copies, want 1", e.Obj, epoch, e.Procs.Len())
				continue
			}
			target := e.Procs.Sorted()[0]
			if !view.Has(target) {
				rep.violate("R2", e.Seq, e.Proc, "read of %s targeted %v outside view %v of %v", e.Obj, target, view, epoch)
			} else if !holders.Has(target) {
				rep.violate("R2", e.Seq, e.Proc, "read of %s targeted %v which holds no copy (holders %v)", e.Obj, target, holders)
			}
		}
		for i := range t.writes {
			e := &t.writes[i]
			epoch, hasEpoch := accessEpoch(t, e)
			holders, havePl := placement[e.Obj]
			view, haveView := views[shardVP{e.Shard, epoch}]
			if !hasEpoch || !haveView || !havePl {
				rep.Skipped["R3"]++
				continue
			}
			rep.Checked["R3"]++
			if want := holders & view; e.Procs != want {
				rep.violate("R3", e.Seq, e.Proc, "write of %s in %v targeted %v, want copies∩view = %v", e.Obj, epoch, e.Procs, want)
			}
		}
	}
	return rep
}

// ---------------------------------------------------------------------------
// Timelines and view-change latency
// ---------------------------------------------------------------------------

// JoinRec is one processor's assignment to a partition.
type JoinRec struct {
	Proc model.ProcID
	At   time.Duration
}

// VPTimeline summarizes one virtual partition's life in the trace.
type VPTimeline struct {
	VP        model.VPID
	View      []model.ProcID
	InviteAt  time.Duration // first EvVPInvite (-1: not observed)
	CommitAt  time.Duration // initiator's EvVPCommit (-1: not observed)
	Joins     []JoinRec     // in join order
	FirstJoin time.Duration
	LastJoin  time.Duration
}

// FormationLatency is the invite-to-last-join span (0 when either end is
// missing from the trace).
func (t *VPTimeline) FormationLatency() time.Duration {
	if t.InviteAt < 0 || len(t.Joins) == 0 {
		return 0
	}
	return t.LastJoin - t.InviteAt
}

// Timelines extracts one VPTimeline per partition id, sorted by ≺.
func Timelines(events []Event) []VPTimeline {
	byVP := map[model.VPID]*VPTimeline{}
	get := func(vp model.VPID) *VPTimeline {
		t, ok := byVP[vp]
		if !ok {
			t = &VPTimeline{VP: vp, InviteAt: -1, CommitAt: -1}
			byVP[vp] = t
		}
		return t
	}
	for _, e := range events {
		switch e.Kind {
		case EvVPInvite:
			t := get(e.VP)
			if t.InviteAt < 0 || e.At < t.InviteAt {
				t.InviteAt = e.At
			}
		case EvVPCommit:
			t := get(e.VP)
			if t.CommitAt < 0 || e.At < t.CommitAt {
				t.CommitAt = e.At
			}
		case EvVPJoin:
			t := get(e.VP)
			if len(t.View) == 0 {
				t.View = e.Procs.Sorted()
			}
			t.Joins = append(t.Joins, JoinRec{Proc: e.Proc, At: e.At})
			if len(t.Joins) == 1 || e.At < t.FirstJoin {
				t.FirstJoin = e.At
			}
			if e.At > t.LastJoin {
				t.LastJoin = e.At
			}
		}
	}
	out := make([]VPTimeline, 0, len(byVP))
	for _, t := range byVP {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VP.Less(out[j].VP) })
	return out
}

// ViewChangeStat aggregates one processor's depart→join latencies: the
// spans during which the processor was unassigned and refusing work.
type ViewChangeStat struct {
	Proc           model.ProcID
	Count          int
	Min, Max, Mean time.Duration
}

// ViewChangeLatencies pairs every EvVPDepart with the processor's next
// EvVPJoin and aggregates the spans per processor, sorted by processor.
func ViewChangeLatencies(events []Event) []ViewChangeStat {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	departAt := map[model.ProcID]time.Duration{}
	pending := map[model.ProcID]bool{}
	agg := map[model.ProcID]*ViewChangeStat{}
	for _, e := range evs {
		switch e.Kind {
		case EvVPDepart:
			departAt[e.Proc] = e.At
			pending[e.Proc] = true
		case EvVPJoin:
			if !pending[e.Proc] {
				continue
			}
			pending[e.Proc] = false
			d := e.At - departAt[e.Proc]
			st, ok := agg[e.Proc]
			if !ok {
				st = &ViewChangeStat{Proc: e.Proc, Min: d, Max: d}
				agg[e.Proc] = st
			}
			st.Count++
			if d < st.Min {
				st.Min = d
			}
			if d > st.Max {
				st.Max = d
			}
			st.Mean += d // sum; divided below
		}
	}
	out := make([]ViewChangeStat, 0, len(agg))
	for _, st := range agg {
		st.Mean /= time.Duration(st.Count)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}
