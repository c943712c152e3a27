// Package core implements the paper's contribution: the virtual
// partition replica control protocol of El Abbadi, Skeen & Cristian
// (PODS 1985), §5, with the §6 optimizations behind configuration flags.
//
// A Node runs, per processor, the concurrent tasks of Figure 3:
//
//	Monitor-VP-Creations  (vpm.go)    — react to invitations and commits
//	Create-VP             (vpm.go)    — initiate new virtual partitions
//	Send-Probes           (vpm.go)    — periodic liveness probing
//	Monitor-Probes        (vpm.go)    — answer/compare probe traffic
//	Update-Copies-in-View (refresh.go)— rule R5 copy refresh
//	Logical-Read/Write    (strategy.go, via the shared node.Base)
//	Physical-Access       (node/server.go, guarded by this strategy)
//
// The blocking pseudocode of the paper maps onto timer-driven state
// machines: the 2δ invitation window (Figure 5 line 5), the 3δ commit
// wait (Figure 6 line 9), and the 2δ probe-acknowledgement window
// (Figure 7 line 11) are virtual-time timers.
package core

import (
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// objectBytes and recordBytes are accounting sizes for the refresh
// traffic experiment (E9): a full-value refresh ships objectBytes, a
// log-based refresh ships recordBytes per missed write.
const (
	objectBytes = 4096
	recordBytes = 64
)

// Config extends the shared node configuration with the virtual
// partition parameters.
type Config struct {
	node.Config
	// Pi is the probe period π. The liveness bound of §5 is Δ = π + 8δ.
	// Default: 20δ.
	Pi time.Duration
	// UsePrevOpt enables the §6 "previous partition" optimization: when
	// every member of a new partition split off from one common previous
	// partition, all copies are already up to date and rule R5 refresh
	// is skipped entirely.
	UsePrevOpt bool
	// UseLogCatchup enables the §6 log-based refresh: an out-of-date
	// copy asks peers for the writes it missed instead of the full
	// value, falling back to a full read when logs were truncated.
	UseLogCatchup bool
	// WeakR4 enables the §6 weakening of rule R4 for two-phase locking:
	// a transaction survives a partition change when every object it
	// references stays accessible and every processor it touched stays
	// in the view.
	WeakR4 bool
	// Mergeable switches the node into the §7 [BGRCK]-style commutative
	// update mode (see mergeable.go): any copy in the view makes an
	// object accessible — minority partitions keep working — and merges
	// combine branch deltas instead of picking the newest date. Intended
	// for counter-like objects whose updates commute; executions are NOT
	// one-copy serializable across partitions, but no update is lost or
	// duplicated. Incompatible with UseLogCatchup and UsePrevOpt (both
	// are forced off).
	Mergeable bool
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	c.Config = c.Config.WithDefaults()
	if c.Pi <= 0 {
		c.Pi = 20 * c.Delta
	}
	if c.Mergeable {
		c.UseLogCatchup = false
		c.UsePrevOpt = false
	}
	return c
}

// Node is one processor running the replica control protocol. It
// implements net.Handler.
type Node struct {
	*node.Base
	cfg Config

	// --- Figure 3 shared variables ---
	curID    model.VPID // cur-id
	maxID    model.VPID // max-id
	assigned bool       // assigned
	lview    model.ProcSet
	// targets is the accessibility rule in lview, decided once per copy
	// set of the catalog when the view is installed (setView).
	targets Targets
	// prevs[q] = the partition q departed to join curID (§6), collected
	// in phase 1 and distributed in phase 2 at no extra message cost.
	prevs map[model.ProcID]model.VPID
	// digests[q] = q's write digest, collected and distributed alongside
	// prevs: what lets the join skip refreshing copies already current.
	digests map[model.ProcID]wire.Digest
	// myPrev is the last partition this processor was assigned to and
	// finished its R5 refresh in (zero if it left with one unfinished).
	myPrev model.VPID

	// --- Create-VP task state (Figure 5) ---
	creating    bool
	createID    model.VPID
	createCause string                         // why (one of the cause constants)
	createTimer net.TimerID                    // the 2δ window of createID
	accepts     map[model.ProcID]wire.AcceptVP // accepting processor → its acceptance

	// --- Monitor-VP-Creations state (Figure 6) ---
	acceptTimer    net.TimerID
	acceptTimerSet bool

	// --- Send-Probes state (Figure 7) ---
	probeSeq    uint64
	probeAcks   model.ProcSet
	probeOpen   bool
	probeVP     model.VPID // the partition the open round was sent in
	probeArmed  bool
	probeJitter time.Duration

	// heard[p] is when p last sent this processor anything at all: what
	// tells a processor that makes us wait from one that is gone.
	heard map[model.ProcID]time.Duration

	// --- Update-Copies-in-View state (Figure 9) ---
	refreshing   map[model.ObjectID]*refreshState
	refreshEpoch model.VPID
	refreshSeq   uint64
	// watchArmed: the round's one no-response watchdog is pending.
	watchArmed bool
	// retryObjs[p] are the objects p refused or found busy, asked again
	// as one CatchupReq δ after the first of them; peerRefusals[p] counts
	// p's refused catch-up rounds.
	retryObjs    map[model.ProcID][]*refreshState
	peerRefusals map[model.ProcID]int

	// recovered is set when New restores a replayed state: the node
	// starts unassigned and immediately attempts to form a partition.
	recovered bool

	// ViewChanges counts partition assignments, for experiments.
	ViewChanges int

	// departedAt records when the node last departed a partition, so the
	// next join can observe the view-change latency (metrics.SViewChange).
	departedAt  time.Duration
	departedSet bool

	// vcCtx is the span context of the most recent view change at this
	// node (zero when untraced); rule R5 refresh spans parent under it.
	vcCtx model.TraceCtx

	// Observer, when set (tests, experiments), receives a JoinEvent or
	// DepartEvent after each assignment change, and a HaltEvent if a
	// failed journal barrier takes the node out of the protocol.
	Observer func(ev any)
}

// JoinEvent reports that the node committed to a virtual partition.
type JoinEvent struct {
	Proc model.ProcID
	VP   model.VPID
	View model.ProcSet
	At   time.Duration
	// Cause is why the partition was created (probe-mismatch, restart,
	// …), at the processor that created it; empty at those it invited.
	Cause string
}

// DepartEvent reports that the node left its virtual partition.
type DepartEvent struct {
	Proc model.ProcID
	VP   model.VPID
	At   time.Duration
}

// HaltEvent reports that a failed journal barrier halted the node
// (node.Base.Halted): it is silent from now on, whatever the network
// does, until the process restarts.
type HaltEvent struct {
	Proc model.ProcID
	Err  error
}

// timer keys
type probeTick struct{}
type probeWindow struct{ seq uint64 }
type createWindow struct{ id model.VPID }
type acceptTimeout struct{}
type refreshWatchdog struct{ vp model.VPID }
type refreshRetry struct {
	obj  model.ObjectID
	seq  uint64
	peer model.ProcID
}
type catchupRetry struct {
	vp   model.VPID
	peer model.ProcID
}

// New constructs the protocol node of processor id, writing its
// protocol-critical state through to j; a nil j gets a fresh
// durable.MemJournal, which keeps nothing across a restart but runs the
// same promise path as a file. st is j's replayed state; a fresh one
// (State.Fresh) starts the node assigned to its trivial partition
// (Figure 3 lines 3–4). Otherwise the node is
// restored — copies keep their dates (R5 refresh, not blind trust, makes
// them readable), max-id continues past every identifier ever used (S3),
// prepared writes stay prepared, unacknowledged decisions resume — and
// starts UNASSIGNED, forming a fresh partition at once.
func New(id model.ProcID, cfg Config, cat *model.Catalog, hist *onecopy.History,
	j durable.Journal, st *durable.State) *Node {
	cfg = cfg.WithDefaults()
	n := &Node{
		cfg:        cfg,
		curID:      model.VPID{N: 0, P: id}, // Figure 3 line 3: init (0, myid)
		maxID:      model.VPID{N: 0, P: id},
		assigned:   true, // Figure 3 line 4
		prevs:      map[model.ProcID]model.VPID{},
		heard:      map[model.ProcID]time.Duration{},
		refreshing: make(map[model.ObjectID]*refreshState),
	}
	n.Base = node.NewBase(id, cfg.Config, cat, (*vpStrategy)(n), hist)
	n.setView(model.NewProcSet(id))
	n.Base.OnHalt = func(err error) {
		if n.Observer != nil {
			n.Observer(HaltEvent{Proc: id, Err: err})
		}
	}
	if j == nil {
		j = durable.NewMemJournal()
	}
	n.Base.Journal = j
	n.Store.SetJournal(j)
	if st.Fresh() {
		return n
	}
	n.assigned = false
	n.recovered = true
	if n.maxID.Less(st.MaxID) {
		n.maxID = st.MaxID
	}
	n.Store.Restore(st.Copies, st.Staged)
	n.RestoreDurable(st)
	return n
}

// Assigned reports defview(p): whether the processor is currently
// assigned to a virtual partition.
func (n *Node) Assigned() bool { return n.assigned }

// CurID returns vp(p), the identifier of the current virtual partition
// (meaningful only when Assigned).
func (n *Node) CurID() model.VPID { return n.curID }

// View returns view(p), the processor's local view.
func (n *Node) View() model.ProcSet { return n.lview }

// Refreshing reports whether any object is still locked for R5 recovery.
func (n *Node) Refreshing() bool { return len(n.refreshing) > 0 }

// Init implements net.Handler: it arms the shared machinery and the
// probe task.
func (n *Node) Init(rt net.Runtime) {
	n.InitBase(rt)
	// Stagger first probes a little per processor so the initial
	// discovery does not fire every creation attempt simultaneously;
	// determinism is preserved (the stagger is a function of the id).
	n.probeJitter = time.Duration(int64(rt.ID())) * n.cfg.Delta / 8
	n.armProbe(rt, n.probeJitter)
	if n.recovered {
		// A restarted processor is unassigned and nobody will invite it
		// into a stable partition spontaneously: initiate one (its
		// probes and the others' will take it from there).
		n.startCreateVP(rt, causeRestart)
	}
}

// bumpMaxID raises max-id monotonically and journals it.
func (n *Node) bumpMaxID(v model.VPID) {
	if n.maxID.Less(v) {
		n.maxID = v
		n.Journal.MaxID(v)
	}
}

func (n *Node) armProbe(rt net.Runtime, d time.Duration) {
	if n.probeArmed {
		return
	}
	n.probeArmed = true
	rt.SetTimer(d, probeTick{})
}

// OnMessage implements net.Handler.
func (n *Node) OnMessage(rt net.Runtime, from model.ProcID, m wire.Message) {
	if n.Halted() {
		// A failed durability barrier crashed this processor to the
		// protocol (see node.Base.Halted). The management protocol must go
		// silent too: acking a view change or serving a catch-up read
		// would let the partition count on max-id and copies a dead
		// journal can no longer preserve across the real restart.
		return
	}
	if !model.IsProc(from) {
		// Not a processor (a client, or a corrupt frame): it takes no
		// part in view management, whatever it sent.
		n.HandleMessage(rt, from, m)
		return
	}
	n.heard[from] = rt.Now()
	switch msg := m.(type) {
	case wire.NewVP:
		n.onNewVP(rt, from, msg)
	case wire.AcceptVP:
		n.onAcceptVP(rt, from, msg)
	case wire.CommitVP:
		n.onCommitVP(rt, from, msg)
	case wire.Probe:
		n.onProbe(rt, from, msg)
	case wire.ProbeAck:
		n.onProbeAck(rt, from, msg)
	case wire.RecoverRead:
		n.onRecoverRead(rt, from, msg)
	case wire.RecoverReadResp:
		n.onRecoverReadResp(rt, from, msg)
	case wire.CatchupReq:
		n.onCatchupReq(rt, from, msg)
	case wire.CatchupResp:
		n.onCatchupResp(rt, from, msg)
	default:
		n.HandleMessage(rt, from, m)
	}
}

// OnTimer implements net.Handler.
func (n *Node) OnTimer(rt net.Runtime, key any) {
	if n.Halted() {
		return // crashed to the protocol: let every timer lapse
	}
	switch k := key.(type) {
	case probeTick:
		n.onProbeTick(rt)
	case probeWindow:
		n.onProbeWindow(rt, k.seq)
	case createWindow:
		n.onCreateWindow(rt, k.id)
	case acceptTimeout:
		n.onAcceptTimeout(rt)
	case refreshWatchdog:
		n.onRefreshWatchdog(rt, k)
	case refreshRetry:
		n.onRefreshRetry(rt, k)
	case catchupRetry:
		n.onCatchupRetry(rt, k)
	default:
		n.HandleTimer(rt, key)
	}
}
