package node

import (
	"errors"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// failingJournal is a synchronous durable.Journal whose barriers start
// failing — stickily, like FileJournal's — after okSyncs successful
// ones, modeling a disk that dies mid-run.
type failingJournal struct {
	okSyncs int
	syncs   int
}

func (f *failingJournal) MaxID(model.VPID)                                 {}
func (f *failingJournal) Apply(model.ObjectID, model.Value, model.Version) {}
func (f *failingJournal) Stage(model.TxnID, model.ObjectID, durable.StagedWrite) {
}
func (f *failingJournal) DropStage(model.TxnID, model.ObjectID)                     {}
func (f *failingJournal) Vote(model.TxnID, durable.VoteRec)                         {}
func (f *failingJournal) Decide(model.TxnID, bool, []model.ProcID, []model.ShardID) {}
func (f *failingJournal) DecideDone(model.TxnID)                                    {}
func (f *failingJournal) Barrier(bool, func(error)) (bool, error) {
	f.syncs++
	if f.syncs > f.okSyncs {
		return true, errors.New("injected fsync failure")
	}
	return true, nil
}

// A participant whose decide barrier fails must never acknowledge the
// decision — not even to a retransmission, which finds the transaction
// no longer prepared — because the ack licenses the coordinator to
// forget an outcome that was never made durable here. The node halts,
// exactly as if it crashed before the ack; what it applied in memory is
// moot, a restart resurrects the transaction from the journal.
func TestParticipantHaltsOnDecideSyncFailure(t *testing.T) {
	f := newFixture(t, 3, "x")
	// First sync (prepare-ack barrier) succeeds, second (decide) fails.
	f.bases[2].Journal = &failingJournal{okSyncs: 1}
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	res, ok := f.results[tag]
	if !ok || !res.Committed {
		t.Fatalf("transaction should commit (decision was made): %+v", res)
	}
	if !f.bases[2].Halted() {
		t.Fatal("participant with failed decide sync must halt")
	}
	// The retransmitted Decide was never acked, so the coordinator is
	// still driving the decision for the restart to pick up.
	if got := f.bases[1].ActiveTxns(); got != 1 {
		t.Fatalf("coordinator active = %d, want 1 (unacked decide keeps retransmitting)", got)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A participant left prepared by a coordinator that lost its decision —
// halted at the decide barrier and then restarted with no durable Decide
// record — must not hold its exclusive locks forever: every transaction
// touching the object would time out at the lock and the cluster would
// wedge. The lease sweep sends a DecideQuery to the coordinator, which
// finds no record and answers abort (presumed abort — sound because the
// Decide record is synced before the first Decide send, so a forgotten
// decision was never externalized). The stage drops, the locks free, and
// new writers proceed.
func TestOrphanedPreparedTxnResolvesByPresumedAbort(t *testing.T) {
	f := newFixture(t, 3, "x")
	// Node 2 restarts with a resurrected prepared write for a transaction
	// that node 1 coordinated but has no record of (its decide-sync
	// failed before anything was sent, and it restarted).
	orphan := model.TxnID{Start: 1, P: 1, Seq: 99}
	f.bases[2].RestoreDurable(&durable.State{
		Staged: map[model.TxnID]map[model.ObjectID]durable.StagedWrite{
			orphan: {"x": {Val: 7, Ver: model.Version{Ctr: 3, Writer: orphan}}},
		},
	})
	if got := f.bases[2].PreparedTxns(); got != 1 {
		t.Fatalf("prepared after restore = %d, want 1", got)
	}
	// Run past the lock lease: the sweep queries node 1, which answers
	// abort, releasing the orphan's locks.
	f.run(2 * time.Second)
	if got := f.bases[2].PreparedTxns(); got != 0 {
		t.Fatalf("orphaned prepared txn never resolved: %d still prepared", got)
	}
	// The freed locks must admit new work.
	tag := f.submit(2*time.Second, 3, wire.IncrementOps("x", 5))
	f.run(4 * time.Second)
	res, ok := f.results[tag]
	if !ok || !res.Committed {
		t.Fatalf("writer still blocked after presumed abort: %+v", res)
	}
	if got := f.bases[2].Store.Get("x").Val; got != 5 {
		t.Fatalf("x = %d, want 5 (orphan write must not apply)", got)
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}

// A coordinator whose decide-record sync fails must not externalize the
// decision: with no durable Decide record a restart would never resume
// retransmission, so a participant that missed the only send would stay
// prepared forever while others applied the outcome. The coordinator
// halts without sending; participants stay prepared, as for a
// coordinator that crashed an instant earlier, until a DecideQuery
// reaches its restart (TestOrphanedPreparedTxnResolvesByPresumedAbort).
// Here the coordinator stays halted, so the prepared state must persist
// through the whole run — the sweep queries it sends are swallowed.
func TestCoordinatorHaltsOnDecideSyncFailure(t *testing.T) {
	f := newFixture(t, 3, "x")
	// Node 1 is both a participant and the coordinator; its own stage
	// needs no barrier, so the decide barrier is its first sync — and
	// fails.
	f.bases[1].Journal = &failingJournal{okSyncs: 0}
	tag := f.submit(0, 1, wire.IncrementOps("x", 5))
	f.run(time.Second)
	if res, ok := f.results[tag]; ok && res.Committed {
		t.Fatalf("undurable decision was externalized: %+v", res)
	}
	if !f.bases[1].Halted() {
		t.Fatal("coordinator with failed decide sync must halt")
	}
	// No participant learned the outcome: both stay prepared, blocked on
	// a coordinator that is crashed to the protocol.
	for _, p := range []model.ProcID{2, 3} {
		if got := f.bases[p].PreparedTxns(); got != 1 {
			t.Fatalf("prepared at node %v = %d, want 1 (no Decide may have been sent)", p, got)
		}
		if got := f.bases[p].Store.Get("x").Val; got != 0 {
			t.Fatalf("node %v applied an undecided write: %v", p, got)
		}
	}
	if r := onecopy.Check(f.hist); !r.OK {
		t.Fatalf("not 1SR: %s", r.Reason)
	}
}
