// Package wire defines every message exchanged between processors: the
// virtual-partition management traffic of §5 (invitations, commits,
// probes), the R5 recovery reads, the transaction traffic (lock requests,
// two-phase commit), and client requests/results.
//
// Messages are plain structs. The in-memory transports pass them by
// value; the TCP transport encodes them with the binary codec (see
// binary.go).
package wire

import "github.com/virtualpartitions/vp/internal/model"

// Message is any protocol message. The concrete types below are the full
// vocabulary; Kind classifies them for metrics and tracing.
type Message any

// Envelope is a routed message. Ctx, when non-zero, carries the causal
// trace context of the send; both codecs encode it behind a flag bit so
// untraced frames are byte-identical to the pre-tracing wire format.
type Envelope struct {
	From model.ProcID
	To   model.ProcID
	Msg  Message
	Ctx  model.TraceCtx
}

// ---------------------------------------------------------------------------
// Virtual partition management (paper §5, Figures 4–8)
// ---------------------------------------------------------------------------

// NewVP is the invitation to join a new virtual partition ("newvp" in
// Figure 5, line 4). It is broadcast by the initiator.
type NewVP struct {
	ID model.VPID
}

// AcceptVP is the acceptance of an invitation ("OK"/ack in Figure 5 line 8
// and Figure 6 line 8). Prev carries the sender's previous partition
// assignment, enabling the §6 "previous_v" refresh optimization at no
// extra message cost, exactly as the paper suggests. The Digest beside
// it is taken after the sender departed its partition: the join skips
// refreshing a copy no member can hold a newer version of (see
// core.join).
type AcceptVP struct {
	ID   model.VPID
	From model.ProcID
	Prev model.VPID
	Digest
}

// Digest is a processor's write digest.
type Digest struct {
	// Newest is the newest committed version among its copies.
	Newest model.Version
	// Staged lists the objects holding a prepared, undecided write there.
	Staged []model.ObjectID
}

// CommitVP commits a new virtual partition ("commit" in Figure 5 line 17):
// the initiator distributes the agreed view. Prevs mirrors AcceptVP.Prev
// for every member, again per §6, and Digests every member's write digest.
type CommitVP struct {
	ID      model.VPID
	View    []model.ProcID
	Prevs   map[model.ProcID]model.VPID
	Digests map[model.ProcID]Digest
}

// Probe is the periodic liveness probe (Figure 7 line 10).
type Probe struct {
	From model.ProcID
	VP   model.VPID
	Seq  uint64
}

// ProbeAck acknowledges a probe (Figure 8 line 5).
type ProbeAck struct {
	From model.ProcID
	Seq  uint64
}

// RecoverRead asks for the current (value, date) of a copy on behalf of
// Update-Copies-in-View (Figure 9 line 11). Unlike a transactional read it
// is served even while the object is in the recipient's "locked" set —
// every member refreshes concurrently, so waiting for the lock as written
// in the paper's Physical-Access task would deadlock; serving the stored
// pre-refresh copy is safe because the requester maximizes the date over a
// majority (see DESIGN.md). A copy with a transactional write *prepared
// in an earlier partition* is the one case that must not be read yet (§6
// condition (3)); the response then reports Busy and the requester
// retries. (A write prepared in the current one goes through the
// requester's copy as well; see core.copyBusy.)
type RecoverRead struct {
	Obj model.ObjectID
	VP  model.VPID
	Seq uint64
}

// CompEntry is one per-writer component of a mergeable counter (§7
// integration, see internal/core mergeable mode): the running total of
// the deltas coordinator P has committed to the object, stamped with the
// version of P's latest write. Components written by one coordinator are
// totally ordered (a processor is in one partition at a time), so two
// diverged copies merge by keeping, per writer, the entry with the
// greater version — nothing is lost, nothing is counted twice.
type CompEntry struct {
	P     model.ProcID
	Ver   model.Version
	Total model.Value
}

// RecoverReadResp answers a RecoverRead.
type RecoverReadResp struct {
	Obj  model.ObjectID
	Seq  uint64
	OK   bool // false: responder not in the same partition
	Busy bool // true: copy has a prepared write; retry later
	Val  model.Value
	Ver  model.Version
	// Comps is attached in mergeable-counter mode only.
	Comps []CompEntry
}

// ObjSince names one out-of-date copy in a batched catch-up request:
// the object, the version the requester's copy already holds (its §5
// "date"), and the per-object refresh sequence number that guards the
// reply against stale rounds.
type ObjSince struct {
	Obj   model.ObjectID
	Since model.Version
	Seq   uint64
}

// CatchupReq is the §6 log-based catch-up ("apply to the out-of-date
// copy all of the writes that it missed"), the default R5 path: a
// rejoining node presents its virtual partition id and, per object, the
// date vector of its copies, and asks one peer for every missed-write
// delta in a single frame. Peers answer from their in-memory write log
// or, when that has evicted the range, from the retained segments of
// their write-ahead journal; only when both are truncated below Since
// does the requester fall back to full-copy RecoverRead for that
// object.
type CatchupReq struct {
	VP   model.VPID
	Objs []ObjSince
}

// ObjDelta is one object's slice of a CatchupResp.
type ObjDelta struct {
	Obj      model.ObjectID
	Seq      uint64
	Busy     bool // copy has a prepared write; retry later (§6 condition (3))
	Complete bool // false: log truncated below Since; requester must full-copy
	Entries  []model.Copy
}

// CatchupResp answers a CatchupReq. OK false means the responder is not
// assigned to the requester's partition and the whole batch is void.
type CatchupResp struct {
	OK   bool
	Objs []ObjDelta
}

// ---------------------------------------------------------------------------
// Sharding (internal/shard)
// ---------------------------------------------------------------------------

// ShardMsg wraps any protocol message with the shard it belongs to. In a
// sharded deployment every per-shard protocol exchange — VP management,
// locks, 2PC, R5 catch-up — travels inside a ShardMsg so the receiving
// router can demultiplex it to the right shard node. Unsharded
// deployments never produce ShardMsg frames, so the existing wire format
// is untouched.
type ShardMsg struct {
	Shard model.ShardID
	Msg   Message
}

// ShardEpochReq asks a member of shard Shard for that shard's current
// epoch (its committed virtual partition id and view). Coordinators use
// it to warm their epoch cache for shards they do not host. It is sent
// unwrapped: the shard is named in the message itself.
type ShardEpochReq struct {
	Shard model.ShardID
}

// ShardEpochResp answers a ShardEpochReq. Has is false while the
// responder has no committed partition for the shard (still forming).
type ShardEpochResp struct {
	Shard model.ShardID
	VP    model.VPID
	Has   bool
	View  []model.ProcID
}

// ---------------------------------------------------------------------------
// Transaction processing (locks + two-phase commit)
// ---------------------------------------------------------------------------

// LockReq asks the recipient to lock its copy of Obj for the transaction
// and, once granted, return the copy. Both modes return the copy: shared
// locks need the value (this is the physical read of R2), exclusive locks
// need the version so the coordinator can compute the successor version.
//
// Epoch carries the coordinator's virtual partition id; the recipient
// grants only if it is assigned to the same partition (rule R4). Quorum
// and ROWA protocols have no partitions and set HasEpoch false.
type LockReq struct {
	Txn      model.TxnID
	Obj      model.ObjectID
	Mode     model.LockMode
	Epoch    model.VPID
	HasEpoch bool
	// Patient marks the one request of a transaction that holds no lock
	// anywhere yet: the recipient may queue it behind an older holder
	// where wait-die would kill it (locks.Manager.AcquirePatient).
	Patient bool
}

// LockStatus is the outcome of a lock request.
type LockStatus uint8

const (
	// LockGranted: the lock is held and the copy is attached.
	LockGranted LockStatus = iota
	// LockDenied: wait-die killed the request (a younger transaction hit
	// an older holder). The coordinator must abort.
	LockDenied
	// LockWrongEpoch: recipient is not assigned to the requester's
	// partition (or not assigned at all). The coordinator must abort.
	LockWrongEpoch
)

func (s LockStatus) String() string {
	switch s {
	case LockGranted:
		return "granted"
	case LockDenied:
		return "denied"
	default:
		return "wrong-epoch"
	}
}

// LockResp answers a LockReq. Epoch/HasEpoch echo the request so a
// coordinator that migrated a transaction to a new partition (§6 weak
// R4) can discard stale refusals addressed to the old epoch.
type LockResp struct {
	Txn      model.TxnID
	Obj      model.ObjectID
	Status   LockStatus
	Val      model.Value
	Ver      model.Version
	Epoch    model.VPID
	HasEpoch bool
	// HasMissing reports that this copy is marked as having missed writes
	// (missing-writes baseline only). A read-one coordinator seeing it
	// must escalate to a majority read.
	HasMissing bool
}

// ObjWrite is one staged physical write shipped in a Prepare.
type ObjWrite struct {
	Obj model.ObjectID
	Val model.Value
	Ver model.Version
	// Delta marks Val as an increment to the coordinator's counter
	// component rather than an absolute value (mergeable mode).
	Delta bool
	// MissedBy lists copies the write could not reach (missing-writes
	// baseline); the recipient records marks against them.
	MissedBy []model.ProcID
	// Lock asks the recipient to take the exclusive lock itself, before
	// staging: the transaction ran no lock round for this write because it
	// already holds the object's version under a lock of its epoch. Base
	// is that version — the one Ver was derived from — and the recipient
	// votes no unless its copy is exactly there.
	Lock bool
	Base model.Version
}

// Prepare is phase one of two-phase commit, sent to every participant a
// transaction writes at. The participant votes yes only if it holds —
// or, for writes marked Lock, can take — the exclusive locks in the same
// partition (R4); a wait-die loser votes no.
type Prepare struct {
	Txn      model.TxnID
	Epoch    model.VPID
	HasEpoch bool
	Writes   []ObjWrite
	// Recollect marks the prepare of a restarted coordinator that found
	// its vote record and no decision: the recipient repeats the vote it
	// is durably bound to — yes only if it is prepared and has voted, no
	// otherwise — and never prepares afresh. Writes is empty.
	Recollect bool
}

// Vote answers a Prepare, echoing its epoch (see LockResp). Why tells
// the coordinator what a no-vote ran into, for its abort counters.
type Vote struct {
	Txn      model.TxnID
	From     model.ProcID
	OK       bool
	Why      NoVote
	Epoch    model.VPID
	HasEpoch bool
}

// NoVote classifies a refused Prepare.
type NoVote uint8

const (
	// NoOther: a lock the prepare relies on is gone, the object is not
	// held here, or (Recollect) there is no vote on record to repeat.
	NoOther NoVote = iota
	// NoWaitDie: wait-die refused a lock the prepare asked for.
	NoWaitDie
	// NoBaseVersion: the copy is not at ObjWrite.Base.
	NoBaseVersion
	// NoWrongEpoch: the recipient is not in the prepare's partition.
	NoWrongEpoch
)

// Decide is phase two: commit or abort. The coordinator retransmits it
// until every prepared participant acknowledges, so a participant that
// voted yes is never left blocked forever once communication resumes.
type Decide struct {
	Txn    model.TxnID
	Commit bool
}

// DecideAck stops retransmission of Decide.
type DecideAck struct {
	Txn  model.TxnID
	From model.ProcID
}

// DecideQuery asks a transaction's coordinator for its phase-two
// outcome. A participant sends it for a transaction that has sat
// prepared past its lock lease: the coordinator's retransmission stream
// is gone — it halted at a failed decide barrier, or restarted without a
// durable Decide record and so cannot know to resume. The answer is an
// ordinary Decide. A coordinator with no record answers abort, which is
// sound (presumed abort) because the Decide record is synced before the
// first Decide send: a forgotten transaction's commit was never
// externalized to anyone.
type DecideQuery struct {
	Txn  model.TxnID
	From model.ProcID
}

// Release frees locks a transaction holds at the recipient without a
// write decision (read-only participants, cleanup after an abort decided
// before prepare, or a straggler grant the coordinator no longer wants).
// Obj narrows the release to one object; empty releases everything the
// transaction holds at the recipient.
type Release struct {
	Txn model.TxnID
	Obj model.ObjectID
}

// ---------------------------------------------------------------------------
// Client traffic
// ---------------------------------------------------------------------------

// OpKind distinguishes the operations in a transaction specification.
type OpKind uint8

const (
	// OpRead reads a logical object into the transaction's register file.
	OpRead OpKind = iota
	// OpWrite writes Const plus (optionally) the register previously read
	// from Src. Read-modify-write transactions (increments, transfers)
	// are expressed this way so specifications stay wire-encodable.
	OpWrite
)

// Op is one step of a transaction.
type Op struct {
	Kind   OpKind
	Obj    model.ObjectID
	Src    model.ObjectID // register operand for OpWrite when UseSrc
	Const  int64
	UseSrc bool
}

// ReadOp returns an OpRead of obj.
func ReadOp(obj model.ObjectID) Op { return Op{Kind: OpRead, Obj: obj} }

// WriteOp returns an OpWrite of a constant.
func WriteOp(obj model.ObjectID, v int64) Op {
	return Op{Kind: OpWrite, Obj: obj, Const: v}
}

// IncrementOps returns the canonical increment transaction used by the
// paper's Example 1: read obj, write obj := obj + delta.
func IncrementOps(obj model.ObjectID, delta int64) []Op {
	return []Op{
		ReadOp(obj),
		{Kind: OpWrite, Obj: obj, Src: obj, Const: delta, UseSrc: true},
	}
}

// TransferOps returns a transfer transaction: move amount from a to b.
func TransferOps(a, b model.ObjectID, amount int64) []Op {
	return []Op{
		ReadOp(a), ReadOp(b),
		{Kind: OpWrite, Obj: a, Src: a, Const: -amount, UseSrc: true},
		{Kind: OpWrite, Obj: b, Src: b, Const: amount, UseSrc: true},
	}
}

// ClientTxn submits a transaction to the receiving processor, which
// becomes its coordinator.
type ClientTxn struct {
	Tag uint64 // caller-chosen correlation tag, echoed in ClientResult
	Ops []Op
}

// ObjVal pairs an object with the value a transaction read or wrote for
// it, stamped with the version that carried the value. The version lets
// a client (or the gateway's session layer) order what it observed
// against what it previously committed — the basis of read-your-writes.
type ObjVal struct {
	Obj model.ObjectID
	Val model.Value
	Ver model.Version
}

// ClientResult reports a transaction's fate to the submitter.
type ClientResult struct {
	Tag       uint64
	Txn       model.TxnID
	Committed bool
	// Denied is true when the transaction was refused outright because a
	// referenced object was inaccessible (rule R1) — the "abort" exception
	// of Logical-Read/Logical-Write — as opposed to aborted mid-flight.
	Denied bool
	Reason string
	Reads  []ObjVal
	// Writes reports, for a committed transaction, the value and version
	// committed per written object. Session layers use the versions as
	// high-water marks for read-your-writes routing.
	Writes []ObjVal
}
