package shard

import (
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

// SplitState partitions a processor's replayed durable state among the
// shard nodes it hosts plus the router's multi-shard coordinator. The
// shard nodes share one physical journal, so a crash replays one global
// State; recovery, however, is per shard: each shard node restores only
// the copies and staged writes of its own objects, and the pending
// commit decisions and undecided coordinator votes — which may span
// shards — go to the coordinator, which resumes their Decide fan-out or
// collects their votes again.
//
// Every shard state carries the global MaxID: partition identifiers are
// drawn from one counter per processor regardless of shard, so starting
// each shard's numbering above the global maximum preserves S3's
// never-reuse property without per-shard counters in the journal.
func SplitState(st *durable.State, m *Map, hosted []model.ShardID) (map[model.ShardID]*durable.State, *durable.State) {
	perShard := make(map[model.ShardID]*durable.State, len(hosted))
	for _, s := range hosted {
		ss := durable.NewState()
		ss.MaxID = st.MaxID
		perShard[s] = ss
	}
	for o, c := range st.Copies {
		if ss := perShard[m.ShardOf(o)]; ss != nil {
			ss.Copies[o] = c
		}
	}
	// One transaction's staged writes at this processor can span shards;
	// split them object by object so each shard node re-holds exactly
	// the locks its own staged copies imply.
	for txn, objs := range st.Staged {
		for o, w := range objs {
			ss := perShard[m.ShardOf(o)]
			if ss == nil {
				continue
			}
			if ss.Staged[txn] == nil {
				ss.Staged[txn] = make(map[model.ObjectID]durable.StagedWrite)
			}
			ss.Staged[txn][o] = w
		}
	}
	coord := durable.NewState()
	for txn, rec := range st.Decides {
		coord.Decides[txn] = rec
	}
	for txn, rec := range st.Votes {
		coord.Votes[txn] = rec
	}
	return perShard, coord
}
