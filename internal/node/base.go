package node

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/locks"
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/store"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Base is the protocol-independent part of a replicated-data node. A
// concrete node (the VP protocol node, a baseline node) embeds or wraps a
// Base and routes the transaction-processing messages to it.
type Base struct {
	ID    model.ProcID
	Cfg   Config
	Cat   *model.Catalog
	Strat Strategy
	// sharded is Strat when it implements Sharder (the multi-shard
	// coordinator of internal/shard); nil otherwise.
	sharded Sharder
	Store   *store.Store
	Locks   *locks.Manager
	// Hist, when non-nil, receives a record per finished transaction for
	// the one-copy serializability checker.
	Hist *onecopy.History
	// Journal receives prepared writes and commit decisions for
	// crash-restart durability (see internal/durable); Store writes
	// through the same one.
	Journal durable.Journal

	// --- server side ---
	waiting  map[lockKey]pendingLock
	deferred []deferredAccess
	prepared map[model.TxnID]*preparedTxn
	activity map[model.TxnID]int64 // last grant/stage, ns; for lease sweep

	// --- coordinator side ---
	active map[model.TxnID]*txn
	seq    uint64
	// stamped is the highest transaction age handed out here or seen on
	// another coordinator's request (see stamp).
	stamped int64
	// telling counts, per object, the commits decided here whose Decide
	// is still waiting for its record's flush; held are the transactions
	// submitted meanwhile that touch such an object (see startTxn).
	telling map[model.ObjectID]int
	held    []heldTxn
	// resumed decisions and undecided votes restored from the journal,
	// re-driven by InitBase.
	resumed      map[model.TxnID]durable.DecideRec
	resumedVotes map[model.TxnID]durable.VoteRec

	// spanSeq counts spans minted at this node. Only advanced for traced
	// transactions, so untraced runs stay byte-identical.
	spanSeq uint32

	// halted marks the processor as crashed to the protocol: a journal
	// barrier failed (see Promise), so no further promise this node makes
	// can be backed by disk. A halted node goes silent (messages and
	// timers are dropped) until a real restart replays the journal's last
	// durable prefix.
	halted bool
	// OnHalt, when set, is told the error that halted the node — the
	// embedding process logs it and fails its health check, so an
	// operator can tell a halted node from a partitioned one.
	OnHalt func(err error)
}

// Halted reports whether a failed durability barrier has taken this node
// out of the protocol. Embedding nodes must drop all traffic — including
// non-transaction traffic such as partition management — once set: a
// halted node acking anything (a view change, a decide) would externalize
// promises its dead journal can no longer keep.
func (b *Base) Halted() bool { return b.halted }

// nextSpan mints a node-unique span id: the processor id in the high
// byte keeps concurrently minted ids from colliding across nodes while
// staying deterministic under simulation.
func (b *Base) NextSpan() uint32 {
	b.spanSeq++
	return uint32(b.ID)<<24 | b.spanSeq&0xFFFFFF
}

type lockKey struct {
	txn model.TxnID
	obj model.ObjectID
}

// deferredAccess is a physical access that waits: parked until the node
// joins a partition or finishes refreshing the object, or (pendingLock)
// queued for a lock. It is a lock request, or a prepare with locks to
// take: then prep is set, req names the transaction and the object it
// waits for, and whoever ends the wait resumes the prepare instead of
// answering req. ctx is the trace context the access arrived with.
type deferredAccess struct {
	from model.ProcID
	req  wire.LockReq
	prep *wire.Prepare
	ctx  model.TraceCtx
}

// pendingLock is an access queued in the lock table; queuedAt lets the
// grant close a part-lock-wait span.
type pendingLock struct {
	deferredAccess
	queuedAt time.Duration
}

type preparedTxn struct {
	coord  model.ProcID
	writes []wire.ObjWrite
	// voted is set once the stage records are durable and the yes-vote
	// has left; until then a retransmitted Prepare must not be answered.
	voted bool
}

// timer keys
type opTimeout struct {
	txn model.TxnID
	op  int
}
type voteTimeout struct{ txn model.TxnID }
type decideRetry struct{ txn model.TxnID }
type leaseSweep struct{}

// NewBase constructs the shared node machinery for processor id, writing
// through journal j. A nil j gets a FileJournal of its own on a fresh
// durable.Memory filesystem, opened without a committer so that every
// barrier completes on the caller's goroutine: the node runs the
// deployed journal, and keeps nothing across a restart.
func NewBase(id model.ProcID, cfg Config, cat *model.Catalog, strat Strategy, hist *onecopy.History,
	j durable.Journal) *Base {
	cfg = cfg.WithDefaults()
	if j == nil {
		_, fj, err := durable.OpenOptions("journal", durable.Options{FS: durable.Memory()})
		if err != nil {
			panic(fmt.Sprintf("node: in-memory journal: %v", err))
		}
		j = fj
	}
	b := &Base{
		ID:       id,
		Cfg:      cfg,
		Cat:      cat,
		Strat:    strat,
		Store:    store.New(id, cat, cfg.InitValue, cfg.LogCap),
		Locks:    locks.NewManager(),
		Hist:     hist,
		Journal:  j,
		waiting:  make(map[lockKey]pendingLock),
		prepared: make(map[model.TxnID]*preparedTxn),
		activity: make(map[model.TxnID]int64),
		active:   make(map[model.TxnID]*txn),
		telling:  make(map[model.ObjectID]int),
	}
	b.Store.SetJournal(j)
	b.sharded, _ = strat.(Sharder)
	return b
}

// InitBase arms the lock-lease sweeper, resumes any journaled commit
// decisions that were not fully acknowledged before a crash, and asks
// again for the votes of transactions whose vote record has no decision.
// Concrete nodes call it from their Init.
func (b *Base) InitBase(rt net.Runtime) {
	// A committing journal releases promises from its own goroutine and
	// needs the engine's way back onto this one; say so now, not from the
	// committer at the first barrier.
	if c, ok := b.Journal.(interface{ Committing() bool }); ok && c.Committing() {
		if _, ok := rt.(net.Poster); !ok {
			panic(fmt.Sprintf("node: journal with a committer needs a runtime implementing net.Poster, have %T", rt))
		}
	}
	rt.SetTimer(b.Cfg.LockTimeout, leaseSweep{})
	for _, id := range model.SortedTxns(b.resumed) {
		rec := b.resumed[id]
		t := &txn{
			id:        id,
			phase:     phaseDeciding,
			announced: true, // the record was replayed, so it is durable
			commit:    rec.Commit,
		}
		for i, p := range rec.Pending {
			k := partKey{P: p}
			if i < len(rec.Shards) {
				k.S = rec.Shards[i]
			}
			t.part(k).writes = noWrites
		}
		t.voters = len(t.parts)
		t.unacked = t.voters
		b.active[id] = t
		if b.Hist != nil {
			b.Hist.Resolve(id, rec.Commit) // decided, then killed before it could say so
		}
		for _, p := range t.parts {
			b.sendPartPlain(rt, p.partKey, wire.Decide{Txn: id, Commit: rec.Commit})
		}
		t.retryTimer = rt.SetTimer(b.Cfg.DecideRetry, decideRetry{txn: id})
	}
	b.resumed = nil
	// A vote record without a decision: the dead incarnation may have
	// reached its commit point and answered its client, or not. Either
	// way the participants' durable votes say which — each repeats the
	// vote it is bound to, all yes commits, any no aborts — so ask them,
	// under the epochs the prepares carried, until all have answered.
	for _, id := range model.SortedTxns(b.resumedVotes) {
		rec := b.resumedVotes[id]
		t := &txn{
			id:          id,
			phase:       phaseVoting,
			recollect:   true,
			voteCast:    true,
			voteDurable: true,
		}
		for i, p := range rec.Parts {
			k := partKey{P: p}
			if rec.Shards != nil {
				k.S = rec.Shards[i]
			}
			if rec.Epochs != nil {
				t.pin(k.S, Epoch{VP: rec.Epochs[i], Has: true})
			}
			t.part(k).writes = noWrites
		}
		t.voters = len(t.parts)
		b.active[id] = t
		rt.Metrics().Inc(metrics.CTxnRecollect, 1)
		rt.Metrics().Inc(metrics.CTxnInDoubt, 1)
		b.askAgain(rt, t)
		t.retryTimer = rt.SetTimer(b.Cfg.DecideRetry, decideRetry{txn: id})
	}
	b.resumedVotes = nil
}

// RestoreDurable seeds the node from journaled state before it starts:
// staged participant writes of copies held here become prepared
// transactions again, unacknowledged coordinator decisions resume
// retransmission and undecided coordinator votes are collected again.
// The store must be restored separately (Store.Restore).
func (b *Base) RestoreDurable(st *durable.State) {
	for txnID, objs := range st.Staged {
		// Under one journal per processor a transaction can have staged
		// writes at a co-hosted shard too; those are that shard node's.
		var held []model.ObjectID
		for o := range objs {
			if b.Store.Has(o) {
				held = append(held, o)
			}
		}
		if len(held) == 0 {
			continue
		}
		slices.Sort(held)
		writes := make([]wire.ObjWrite, 0, len(held))
		for _, o := range held {
			w := objs[o]
			writes = append(writes, wire.ObjWrite{Obj: o, Val: w.Val, Ver: w.Ver, MissedBy: w.MissedBy})
		}
		b.prepared[txnID] = &preparedTxn{writes: writes, voted: true}
		// The participant re-holds the exclusive locks its promise
		// implies, so nothing else can touch the copies before Decide.
		for _, o := range held {
			b.Locks.Acquire(o, txnID, model.LockExclusive)
		}
	}
	if b.resumed == nil {
		b.resumed = make(map[model.TxnID]durable.DecideRec)
	}
	for id, rec := range st.Decides {
		b.resumed[id] = rec
	}
	if b.resumedVotes == nil {
		b.resumedVotes = make(map[model.TxnID]durable.VoteRec)
	}
	for id, rec := range st.Votes {
		b.resumedVotes[id] = rec
	}
}

// HandleMessage processes a transaction-related message. It returns
// false when the message is not transaction traffic, so the caller can
// route it elsewhere (the VP management protocol).
func (b *Base) HandleMessage(rt net.Runtime, from model.ProcID, m wire.Message) bool {
	if b.halted {
		return true // crashed to the protocol: swallow everything
	}
	switch msg := m.(type) {
	case wire.ClientTxn:
		b.startTxn(rt, msg, rt.TraceCtx())
	case wire.LockReq:
		b.Witness(msg.Txn)
		b.handleLockReq(rt, from, msg)
	case wire.LockResp:
		b.handleLockResp(rt, from, model.NoShard, msg)
	case wire.Prepare:
		b.Witness(msg.Txn)
		b.handlePrepare(rt, from, msg)
	case wire.Vote:
		b.handleVote(rt, from, model.NoShard, msg)
	case wire.Decide:
		b.handleDecide(rt, from, msg)
	case wire.DecideAck:
		b.handleDecideAck(rt, from, model.NoShard, msg)
	case wire.DecideQuery:
		b.handleDecideQuery(rt, from, model.NoShard, msg)
	case wire.Release:
		b.handleRelease(rt, from, msg)
	default:
		return false
	}
	return true
}

// HandleTimer processes a transaction-related timer. It returns false
// for keys it does not own.
func (b *Base) HandleTimer(rt net.Runtime, key any) bool {
	if b.halted {
		switch key.(type) {
		case opTimeout, voteTimeout, decideRetry, leaseSweep:
			return true // crashed to the protocol: let every timer lapse
		}
		return false
	}
	switch k := key.(type) {
	case opTimeout:
		b.handleOpTimeout(rt, k)
	case voteTimeout:
		b.handleVoteTimeout(rt, k)
	case decideRetry:
		b.handleDecideRetry(rt, k)
	case leaseSweep:
		b.sweepLeases(rt)
		rt.SetTimer(b.Cfg.LockTimeout, leaseSweep{})
	default:
		return false
	}
	return true
}

// EpochChanged aborts everything invalidated by a partition change at
// this node (rule R4): local transactions this node coordinates that
// have not yet reached a commit decision, and locks held here on behalf
// of remote transactions that are not prepared. Prepared transactions
// keep their locks and staged writes — they resolved their fate with a
// majority of votes in the old partition and will receive a
// (retransmitted) Decide; rule R5 recovery waits for them (see
// wire.RecoverRead).
func (b *Base) EpochChanged(rt net.Runtime, reason string) {
	// Coordinator side: abort undecided transactions.
	b.ShardEpochChanged(rt, model.NoShard, reason)
	// Server side: release locks of non-prepared transactions.
	for _, id := range b.Locks.Txns() {
		if _, isPrepared := b.prepared[id]; isPrepared {
			continue
		}
		b.Store.DropAllStagedBy(id)
		b.processGrants(rt, b.Locks.ReleaseAll(id))
		delete(b.activity, id)
	}
	// Parked accesses belong to the old partition: refuse them, echoing
	// the epoch they came with — a refusal without it reads as stale to
	// its coordinator, which then sits out its whole timeout.
	for _, d := range b.deferred {
		b.refuse(rt, d)
	}
	b.deferred = nil
	// So do the requests still queued behind a prepared transaction's
	// locks (the others were answered by processGrants as the locks in
	// front of them went).
	var queued []lockKey
	for k := range b.waiting {
		if _, isPrepared := b.prepared[k.txn]; !isPrepared {
			queued = append(queued, k)
		}
	}
	sort.Slice(queued, func(i, j int) bool {
		if queued[i].txn != queued[j].txn {
			return queued[i].txn.Less(queued[j].txn)
		}
		return queued[i].obj < queued[j].obj
	})
	for _, k := range queued {
		p := b.waiting[k]
		delete(b.waiting, k)
		b.refuse(rt, p.deferredAccess)
	}
}

// HasPrepared reports whether any transaction is prepared-but-undecided
// at this node with a staged write on obj. R5 recovery must not read
// such a copy (§6 condition (3)).
func (b *Base) HasPrepared(obj model.ObjectID) bool {
	_, ok := b.Store.StagedBy(obj)
	return ok
}

// ActiveTxns returns the number of transactions this node currently
// coordinates (for tests and introspection).
func (b *Base) ActiveTxns() int { return len(b.active) }

// PreparedTxns returns the number of prepared-but-undecided transactions
// at this node's server side.
func (b *Base) PreparedTxns() int { return len(b.prepared) }
