package node

import (
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

// MigrateActive implements the coordinator half of the §6 weakened rule
// R4: when the processor joins a new virtual partition, a transaction it
// coordinates may continue executing in the new partition — instead of
// aborting as plain R4 demands — provided its entire footprint carried
// over. The canMigrate callback receives the transaction's footprint:
// every object its operations reference and every processor it has
// physically touched so far; the caller (the VP strategy) supplies the
// partition-specific test (§6 conditions (1) and (2); condition (3) is
// enforced on the recovery side, see core.copyBusy).
//
// A migrated transaction adopts newEpoch; outstanding lock requests and
// prepares are re-issued under the new epoch, and their old-epoch
// responses are discarded by the epoch echo filter in handleLockResp /
// handleVote. Non-migratable transactions abort.
func (b *Base) MigrateActive(rt net.Runtime, newEpoch Epoch,
	canMigrate func(objs []model.ObjectID, procs model.ProcSet) bool, reason string) {

	ids := make([]model.TxnID, 0, len(b.active))
	for id := range b.active {
		ids = append(ids, id)
	}
	sortTxnIDs(ids)
	for _, id := range ids {
		t := b.active[id]
		if !t.undecided() {
			continue // decided, or the votes' to decide; retransmission continues regardless
		}
		objs, procs := t.footprint()
		if !canMigrate(objs, procs) {
			b.abortTxn(rt, t, abortEpochChanged, reason)
			continue
		}
		t.epochs[model.NoShard] = newEpoch // weak R4 runs unsharded only
		switch t.phase {
		case phaseRunning:
			// Re-issue the unanswered requests of the current operation
			// under the new epoch. Answered ones keep their locks (the
			// server retained them across the change in weak mode).
			if t.got != nil && len(t.got) < len(t.plan.Targets) {
				for _, p := range t.plan.Targets {
					if _, ok := t.got[p]; !ok {
						b.sendPartPlain(rt, partKey{P: p, S: t.planShard}, wire.LockReq{
							Txn: t.id, Obj: t.planObj, Mode: t.planMode,
							Epoch: newEpoch.VP, HasEpoch: newEpoch.Has,
						})
					}
				}
			}
		case phaseVoting:
			// Re-issue prepares to participants that have not voted yet;
			// already-collected votes stay valid only if they carry the
			// new epoch, so reset the tally and re-prepare everyone
			// (duplicate prepares are votes "yes" at prepared servers). The
			// coordinator votes again as well: its record names the epoch
			// a restart would ask under.
			t.voteFrom = newPartSet()
			rt.CancelTimer(t.voteTimer)
			b.sendPrepares(rt, t, rt.TraceCtx())
		}
	}
}

// footprint returns every object the transaction's operations reference
// and every processor it has physically contacted so far.
func (t *txn) footprint() ([]model.ObjectID, model.ProcSet) {
	objs := model.NewObjSet()
	for _, op := range t.ops {
		objs.Add(op.Obj)
		if op.UseSrc {
			objs.Add(op.Src)
		}
	}
	var procs model.ProcSet
	for k := range t.sParts {
		procs.Add(k.P)
	}
	for _, ps := range t.writeParts {
		for _, p := range ps {
			procs.Add(p)
		}
	}
	if t.phase == phaseRunning && t.got != nil {
		for _, p := range t.plan.Targets {
			procs.Add(p)
		}
	}
	for k := range t.votesNeeded {
		procs.Add(k.P)
	}
	return objs.Sorted(), procs
}
