package node

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/wire"
)

// lazyJournal models a committing journal whose committer has not got to
// the lazy barriers yet: urgent barriers flush (inline — the simulation
// has one goroutine), lazy ones stay queued. The test kills the node
// before their flush, so they are never released.
type lazyJournal struct{ *durable.FileJournal }

func (j lazyJournal) Barrier(urgent bool, release func(error)) (bool, error) {
	if !urgent {
		return false, nil
	}
	return j.FileJournal.Barrier(true, release)
}

// A participant applies a decision and frees the transaction's locks at
// once; only its acknowledgement waits for the disk. Killed inside that
// window it loses the apply and the drop-stage record, restarts with the
// transaction prepared again — and the coordinator, never acknowledged,
// still holds the decision: the restart's DecideQuery gets it, the write
// lands a second time, and nothing the client was told is lost.
func TestParticipantKilledBeforeLazyAckFlush(t *testing.T) {
	const T = 100 * time.Millisecond
	f := newDurableFixture(t, 3, "x")
	f.bases[2].Journal = lazyJournal{f.journals[2]}
	for _, b := range f.bases {
		// No retransmission within the run: only the participant's own
		// query can finish the transaction.
		b.Cfg.DecideRetry = time.Minute
	}
	acked := f.submit(T, 1, wire.IncrementOps("x", 5))
	f.cluster.At(T+6*time.Millisecond, "kill", func() {
		if res := f.results[acked]; !res.Committed {
			t.Errorf("at the kill the client has no commit: %+v", res)
		}
		b := f.bases[2]
		if got := b.Store.Get("x").Val; got != 5 {
			t.Errorf("at the kill node 2 holds x = %d, want 5 (decide applied)", got)
		}
		if b.PreparedTxns() != 0 || len(b.Locks.Txns()) != 0 {
			t.Errorf("at the kill node 2 still has %d prepared transactions and locks of %v; the decide frees both at once",
				b.PreparedTxns(), b.Locks.Txns())
		}
		if got := f.bases[1].ActiveTxns(); got != 1 {
			t.Errorf("at the kill the coordinator drives %d transactions, want 1 (node 2 has not acknowledged)", got)
		}
		f.kill(2)
	})
	f.restartAt(T+10*time.Millisecond, 2)
	f.run(T + 11*time.Millisecond)
	st := f.restored[2]
	if len(st.Staged) != 1 {
		t.Fatalf("restart resurrected %d staged transactions, want 1", len(st.Staged))
	}
	if c := st.Copies["x"]; c.Val != 0 {
		t.Fatalf("restart replayed x = %d, want 0 (the apply was not durable)", c.Val)
	}
	f.run(T + time.Second) // past the lock lease: DecideQuery, Decide, ack
	f.expectX(5, 1)
}

// deafJournal models a committing journal whose owner is killed after an
// fsync completes and before the released continuation gets its turn on
// the event loop: the records are durable, release never runs.
type deafJournal struct{ *durable.FileJournal }

func (j deafJournal) Barrier(bool, func(error)) (bool, error) {
	j.FileJournal.Sync() //nolint:errcheck // the test's disk does not fail
	return false, nil
}

// A coordinator killed with its vote durable but the barrier's release
// still on its way to the event loop never reached its commit point: it
// told neither the participants, the client nor the 1SR oracle anything.
// Its restart finds the vote record, asks the participants again, hears
// yes from all and commits — and the oracle learns of the commit from
// the record parked when the vote was cast, so a later read of that
// write is a read from a known, committed transaction.
func TestCoordinatorKilledBetweenVoteFsyncAndCommitPoint(t *testing.T) {
	const T = 100 * time.Millisecond
	f := newDurableFixture(t, 3, "x")
	f.bases[1].Journal = deafJournal{f.journals[1]}
	lost := f.submit(T, 1, wire.IncrementOps("x", 5))
	f.cluster.At(T+8*time.Millisecond, "kill", func() {
		if _, ok := f.results[lost]; ok {
			t.Error("the client got an answer before the kill")
		}
		if got := f.hist.Len(); got != 0 {
			t.Errorf("the history holds %d records before the announcement", got)
		}
		f.kill(1)
	})
	f.restartAt(T+12*time.Millisecond, 1)
	f.run(T + 13*time.Millisecond)
	if st := f.restored[1]; len(st.Votes) != 1 || len(st.Decides) != 0 {
		t.Fatalf("restart replayed %d votes and %d decisions, want 1 and 0", len(st.Votes), len(st.Decides))
	}
	read := f.submit(T+200*time.Millisecond, 2, wire.IncrementOps("x", 1))
	f.run(T + time.Second)
	if res := f.results[read]; !res.Committed {
		t.Fatalf("follow-up transaction aborted: %s", res.Reason)
	}
	if got := len(f.hist.Committed()); got != 2 {
		t.Errorf("history holds %d committed transactions, want the recollected one and its reader", got)
	}
	f.expectX(6, 2)
}
