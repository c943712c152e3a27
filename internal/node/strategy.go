// Package node implements the generic replicated-data node shared by the
// virtual-partition protocol and every baseline: a transaction
// coordinator (sequential operation execution under strict two-phase
// locking, buffered writes, two-phase commit with retransmitted
// decisions) and a physical-access server (lock table + versioned store).
//
// Replica control — which copies a logical read or write must touch, and
// whether a physical access from another processor is admissible — is
// delegated to a Strategy. The paper's protocol, majority voting, quorum
// consensus, missing-writes and ROWA are all Strategies over this one
// engine, which keeps cost comparisons honest: they differ only in
// replica control, exactly the decomposition of §3 of the paper.
package node

import (
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Epoch is the partition context a transaction executes in. For the
// virtual-partition protocol it is the vp-id current at Begin (rule R4);
// partition-free protocols run with Has == false.
type Epoch struct {
	VP  model.VPID
	Has bool
}

// Plan describes the physical accesses implementing one logical access:
// the copies to contact and the minimum voting weight that must grant.
//
// Read-one (R2) is a plan with one target. Write-all-in-view (R3) is a
// plan whose MinWeight equals the total weight of its targets — every
// target must grant or the logical write aborts. The missing-writes
// baseline issues writes to all copies with MinWeight = majority, so a
// minority of unreachable copies does not abort the write (they become
// "missed" copies instead).
type Plan struct {
	Targets []model.ProcID
	// MinWeight is the required granted weight (placement weights). The
	// coordinator proceeds as soon as every target granted, or when the
	// lock timeout expires with at least MinWeight granted.
	MinWeight int
	// EarlyQuorum lets the coordinator complete the operation as soon as
	// MinWeight is granted instead of waiting for every target (eager
	// quorum reads/writes à la Gifford). Late grants are released.
	EarlyQuorum bool
	// LockAtPrepare, on a write plan, says the targets' copies are all
	// the same copy — every write goes to all of them and none is behind
	// — so one version read under a lock stands for all. A transaction
	// that holds such a version then skips the write's lock round: its
	// Prepare asks each target for the exclusive lock and for proof that
	// the copy is at that version. Without the bit, or without a version
	// in hand, the write runs the lock round and learns the quorum's
	// maximum from it.
	LockAtPrepare bool
}

// AllOf builds a plan requiring every listed target.
func AllOf(cat *model.Catalog, obj model.ObjectID, targets []model.ProcID) Plan {
	pl := cat.Placement(obj)
	w := 0
	for _, p := range targets {
		w += pl.Weight(p)
	}
	return Plan{Targets: targets, MinWeight: w}
}

// Strategy is the replica-control plug-in.
type Strategy interface {
	// Name identifies the protocol in metrics and experiment tables.
	Name() string

	// Begin is called when this node becomes coordinator of a new
	// transaction, once for every shard the transaction touches (see
	// Sharder; a strategy that does not shard only ever sees
	// model.NoShard). It returns the epoch the transaction will execute
	// in at shard s, or a non-nil error to refuse (e.g. the processor is
	// not assigned to any virtual partition).
	Begin(rt net.Runtime, s model.ShardID) (Epoch, error)

	// StillValid reports whether e, the epoch pinned for shard s, is
	// still current at this node. The coordinator re-checks every pinned
	// shard before deciding commit; the virtual-partition strategy
	// returns false after the processor departed the transaction's
	// partition (rule R4).
	StillValid(rt net.Runtime, s model.ShardID, e Epoch) bool

	// ReadPlan returns the physical plan for a logical read of obj, or
	// an error when the object is inaccessible (rule R1).
	ReadPlan(rt net.Runtime, obj model.ObjectID) (Plan, error)

	// WritePlan returns the physical plan for a logical write of obj, or
	// an error when the object is inaccessible (rule R1).
	WritePlan(rt net.Runtime, obj model.ObjectID) (Plan, error)

	// EscalateRead inspects the responses of a completed read plan and
	// may demand additional copies be read (missing-writes escalates to
	// a majority when the copy carries missing-write marks). A nil or
	// empty result accepts the read.
	EscalateRead(rt net.Runtime, obj model.ObjectID, got map[model.ProcID]wire.LockResp) []model.ProcID

	// AcceptAccess is the server-side admission check for an incoming
	// physical access (rule R4: processor p accepts a request from q
	// only if both are assigned to the same virtual partition).
	AcceptAccess(rt net.Runtime, e Epoch) bool

	// OnNoResponse notifies the strategy that the coordinator timed out
	// waiting for the given processors to answer accesses against shard
	// s (the paper's "no-response" exception, which triggers
	// Create-new-VP in Figures 9–11). sent is when the unanswered
	// accesses — lock requests or prepares — left.
	OnNoResponse(rt net.Runtime, s model.ShardID, suspects []model.ProcID, sent time.Duration)
}

// DeltaWriter is an optional Strategy extension: when UseDeltaWrites
// reports true, the coordinator ships each write as an increment to the
// writer's counter component instead of an absolute value (mergeable
// counter mode, see internal/core). Every written object must have been
// read in the same transaction so the delta is defined.
type DeltaWriter interface {
	UseDeltaWrites() bool
}

// TransitionAware is an optional Strategy extension for protocols whose
// processors pass through an unassigned state between partitions (§6
// weak R4). While InTransition reports true, the server parks incoming
// physical accesses instead of refusing them, and the coordinator treats
// same-epoch refusals and no-votes as transient (its operation and vote
// timeouts remain the backstop).
type TransitionAware interface {
	InTransition(rt net.Runtime) bool
}

// Sharder is an optional Strategy extension for a sharded deployment
// (internal/shard): every object belongs to exactly one shard, and each
// shard runs its own virtual-partition lifecycle. The coordinator pins
// one epoch per shard its transaction touches (rule R4 applied shard by
// shard) and names the shard to Begin, StillValid and OnNoResponse.
// Without it every object is in model.NoShard, the one shard of an
// unsharded deployment.
type Sharder interface {
	ShardOf(obj model.ObjectID) model.ShardID
}

// Config carries the node's timing and storage parameters.
type Config struct {
	// Delta is δ: the assumed upper bound on message delay.
	Delta time.Duration
	// LockTimeout bounds waiting for a physical access plan. A logical
	// access involves at most one round trip plus lock waits; the
	// default, 10δ, leaves room for short lock queues before the
	// no-response exception fires.
	LockTimeout time.Duration
	// DecideRetry is the retransmission interval for Decide until every
	// prepared participant acknowledges (default 4δ).
	DecideRetry time.Duration
	// InitValue is the initial value of every copy.
	InitValue model.Value
	// LogCap bounds the per-object in-memory write log (0 keeps none).
	// The §6 log-based catch-up falls back to the node's journal past
	// it, so 0 does not disable it.
	LogCap int
}

// WithDefaults fills unset durations from Delta.
func (c Config) WithDefaults() Config {
	if c.Delta <= 0 {
		c.Delta = 10 * time.Millisecond
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 10 * c.Delta
	}
	if c.DecideRetry <= 0 {
		c.DecideRetry = 4 * c.Delta
	}
	return c
}

// voteWait bounds waiting for Prepare votes: 4δ.
func (c Config) voteWait() time.Duration { return 4 * c.Delta }
