// Package durable provides write-ahead persistence for a processor's
// protocol-critical state, enabling true crash-restart recovery — the
// paper's model explicitly includes processors that "recover
// spontaneously or because of system maintenance" (§3).
//
// Three pieces of state must survive a restart for the protocol to stay
// correct:
//
//   - max-id: virtual partition identifiers must never be reused
//     (property S3's total order assumes uniqueness); a restarted
//     initiator reusing old sequence numbers could forge a "later"
//     partition that predates committed work.
//   - the copies with their dates: a processor that restarts with blank
//     copies but still counts toward majorities could, together with
//     another stale copy, form a partition that serves old data. With
//     dates preserved, rule R5 refresh brings the copies current before
//     they are readable.
//   - prepared two-phase-commit state, on both sides: a participant's
//     staged writes (it promised to commit them) and a coordinator's
//     decisions that are not yet acknowledged everywhere (participants
//     block until they learn the outcome).
//
// A Journal receives every state change. FileJournal (wal.go) is a
// segmented, checksummed, group-committed write-ahead log: appends ride
// an in-memory batch that one fsync makes durable, a Barrier sits
// exactly where the protocol externalizes a promise, snapshots bound
// restart replay, and the retained segment tail doubles as the §6
// missed-write log for rule R5 catch-up. Open returns the replayed
// State used to seed a restarted node.
package durable

import "github.com/virtualpartitions/vp/internal/model"

// StagedWrite is a prepared-but-undecided write at a participant.
type StagedWrite struct {
	Val      model.Value
	Ver      model.Version
	Delta    bool // component increment (mergeable mode)
	MissedBy []model.ProcID
}

// DecideRec is a coordinator decision not yet acknowledged everywhere.
// In a sharded deployment Shards parallels Pending — Pending[i] is the
// participant processor and Shards[i] the shard it acts for — so a
// restart resumes Decide retransmission to the right shard node. A nil
// Shards means every participant is unsharded (shard zero).
type DecideRec struct {
	Commit  bool
	Pending []model.ProcID
	Shards  []model.ShardID
}

// VoteRec is a coordinator's own vote: the transaction's prepares are
// out and this processor is bound to whatever the participants' durable
// votes add up to. A restart that finds one with no DecideRec asks the
// participants again, under the epochs the prepares carried. Shards and
// Epochs parallel Parts; nil Shards means unsharded, nil Epochs a
// protocol without partitions.
type VoteRec struct {
	Parts  []model.ProcID
	Shards []model.ShardID
	Epochs []model.VPID
}

// State is the replayed durable state of one processor.
type State struct {
	MaxID   model.VPID
	Copies  map[model.ObjectID]model.Copy
	Staged  map[model.TxnID]map[model.ObjectID]StagedWrite
	Decides map[model.TxnID]DecideRec
	// Votes holds the coordinator votes no decision has superseded.
	Votes map[model.TxnID]VoteRec
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Copies:  make(map[model.ObjectID]model.Copy),
		Staged:  make(map[model.TxnID]map[model.ObjectID]StagedWrite),
		Decides: make(map[model.TxnID]DecideRec),
		Votes:   make(map[model.TxnID]VoteRec),
	}
}

// Fresh reports whether a replayed state holds nothing to restore: no
// max-id and no copy (a processor that never joined a partition nor
// applied a write). A nil state is fresh.
func (s *State) Fresh() bool { return s == nil || s.MaxID.IsZero() && len(s.Copies) == 0 }

// Journal receives every durable state change. Implementations must be
// safe for concurrent use: the sharded store (internal/store) journals
// committed writes from whichever stripe applies them. Every node runs
// over one: node.NewBase gives a node built without a journal a
// FileJournal on a fresh Memory filesystem, which a restart does not
// keep.
//
// Record methods (MaxID, Apply, Stage, ...) may buffer; a record is
// only promised to disk once a Barrier registered after it reports nil.
// Protocol code places a Barrier exactly where a promise escapes the
// processor (DESIGN §12 lists them). Everything else rides the
// group-commit batch.
type Journal interface {
	// MaxID records a new high-water virtual partition identifier.
	MaxID(v model.VPID)
	// Apply records a committed physical write of a copy.
	Apply(obj model.ObjectID, val model.Value, ver model.Version)
	// Stage records a prepared write.
	Stage(txn model.TxnID, obj model.ObjectID, w StagedWrite)
	// DropStage forgets a staged write (committed or aborted). A
	// participant drops its writes object by object: co-hosted shards
	// share one journal, and a transaction's staged writes at another
	// shard are not this one's to drop. An empty obj drops every staged
	// write of the transaction; replay still honours it, as the
	// decided-stage repair (resolveDecidedStages) writes it.
	DropStage(txn model.TxnID, obj model.ObjectID)
	// Vote records the coordinator's own vote for a transaction whose
	// prepares have left (see VoteRec). The transaction's Decide record
	// supersedes it.
	Vote(txn model.TxnID, v VoteRec)
	// Decide records a coordinator decision awaiting acknowledgements.
	// shards, when non-nil, parallels pending with each participant's
	// shard (see DecideRec); nil means unsharded.
	Decide(txn model.TxnID, commit bool, pending []model.ProcID, shards []model.ShardID)
	// DecideDone forgets a fully acknowledged decision.
	DecideDone(txn model.TxnID)
	// Barrier is the durable outbox: it gates whatever the caller wants
	// to let out of the processor on every record passed so far being
	// durable. A journal with no committer (a FileJournal opened
	// without Options.Committer) makes them durable on the caller's
	// goroutine and returns done=true with the outcome; release
	// is then never called. A committing journal returns done=false at
	// once and calls release(err) later, from its committer goroutine,
	// after the fsync that covers the records — one fsync shared by
	// every barrier registered while the previous one was in flight. An
	// urgent barrier starts that fsync immediately; a lazy one (nobody's
	// latency waits on it) rides the next urgent barrier's fsync, or the
	// FlushInterval deadline of the oldest unsynced record. A non-nil
	// error means durability is gone for good: nothing gated on it may
	// ever be sent and the caller must treat the processor as crashed.
	// A journal closed or hard-crashed before the fsync drops release
	// without calling it.
	Barrier(urgent bool, release func(err error)) (done bool, err error)
}

// record is the on-disk envelope: one record kind, and so one tag and
// one layout (record.go), per group of fields. Exactly one group is set.
type record struct {
	Snapshot *State
	// SnapUniverse is the hosted-object universe a snapshot was taken
	// under: nil for all objects, else the scope (possibly empty) outside
	// which LogSince refuses to attest completeness (partial replication).
	SnapUniverse []model.ObjectID

	SetMaxID *model.VPID

	ApplyObj model.ObjectID
	ApplyVal model.Value
	ApplyVer *model.Version

	StageTxn *model.TxnID
	StageObj model.ObjectID
	StageW   *StagedWrite

	DropTxn *model.TxnID
	DropObj model.ObjectID

	DecideTxn     *model.TxnID
	DecideCommit  bool
	DecidePending []model.ProcID
	DecideShards  []model.ShardID

	DoneTxn *model.TxnID

	VoteTxn *model.TxnID
	VoteRec VoteRec
}

func (s *State) apply(r *record) {
	switch {
	case r.Snapshot != nil:
		*s = *r.Snapshot
		if s.Copies == nil {
			s.Copies = map[model.ObjectID]model.Copy{}
		}
		if s.Staged == nil {
			s.Staged = map[model.TxnID]map[model.ObjectID]StagedWrite{}
		}
		if s.Decides == nil {
			s.Decides = map[model.TxnID]DecideRec{}
		}
		if s.Votes == nil {
			s.Votes = map[model.TxnID]VoteRec{}
		}
	case r.SetMaxID != nil:
		if s.MaxID.Less(*r.SetMaxID) {
			s.MaxID = *r.SetMaxID
		}
	case r.ApplyVer != nil:
		s.Copies[r.ApplyObj] = model.Copy{Val: r.ApplyVal, Ver: *r.ApplyVer}
	case r.StageTxn != nil:
		if s.Staged[*r.StageTxn] == nil {
			s.Staged[*r.StageTxn] = map[model.ObjectID]StagedWrite{}
		}
		s.Staged[*r.StageTxn][r.StageObj] = *r.StageW
	case r.DropTxn != nil:
		if r.DropObj == "" {
			delete(s.Staged, *r.DropTxn)
		} else if m := s.Staged[*r.DropTxn]; m != nil {
			delete(m, r.DropObj)
			if len(m) == 0 {
				delete(s.Staged, *r.DropTxn)
			}
		}
	case r.DecideTxn != nil:
		s.Decides[*r.DecideTxn] = DecideRec{Commit: r.DecideCommit, Pending: r.DecidePending, Shards: r.DecideShards}
		delete(s.Votes, *r.DecideTxn)
	case r.DoneTxn != nil:
		delete(s.Decides, *r.DoneTxn)
	case r.VoteTxn != nil:
		s.Votes[*r.VoteTxn] = r.VoteRec
	}
}
