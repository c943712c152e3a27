// Package trace is the protocol-aware structured event recorder: a
// low-overhead ring buffer of typed events covering the virtual
// partition lifecycle (probe/probe-ack, invitation/accept/commit, join,
// depart, rule R5 refresh), transaction processing (begin, logical
// read/write plans, commit/abort) and message traffic by kind.
//
// Both engines expose a *Recorder through net.Runtime.Tracer(); protocol
// code records through that handle. A nil or disabled recorder costs one
// predicted branch per call site, so tracing can stay compiled into the
// hot paths — simulation runs are byte-identical with tracing off, and
// the regression benchmarks hold Record to at most one allocation per
// event (zero for events without a processor list).
//
// Events are exported as JSONL keyed by (proc, vp, time, seq) — see
// jsonl.go — which keeps simulated traces deterministic and diffable,
// and feeds the S1–S3/R2/R3 checkers in check.go and cmd/vptrace.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// EventKind classifies a trace event.
type EventKind uint8

// The event taxonomy. VP-lifecycle events follow the paper's Figures 4–9;
// transaction events follow Figures 10–11; message events mirror the
// metrics counters.
const (
	// EvUnknown tags the zero Event; it is never recorded by the engines.
	EvUnknown EventKind = iota

	// --- virtual partition lifecycle ---
	EvProbeSend    // a probe round opened (Figure 7); Aux = probe seq
	EvProbeAck     // a probe acknowledgement arrived; Peer = acker, Aux = seq
	EvVPInvite     // Create-VP phase 1: invitations broadcast; VP = proposed id
	EvVPAccept     // this processor accepted an invitation; VP = id, Peer = initiator
	EvVPCommit     // Create-VP phase 2: initiator committed the view; Procs = view
	EvVPJoin       // processor assigned to VP; Procs = view
	EvVPDepart     // processor departed its VP (assigned ← false)
	EvRefreshStart // rule R5 refresh of Obj started; Aux = peers to contact
	EvRefreshServe // served a recovery read of Obj; Peer = requester, Aux = bytes
	EvRefreshSkip  // §6 previous-partition optimization skipped refresh; Aux = objects
	EvRefreshDone  // refresh of Obj finished; copy unlocked

	// --- transactions ---
	EvTxnBegin  // coordinator started Txn; VP = epoch (zero: partition-free)
	EvTxnRead   // logical read plan issued; Obj, Procs = plan targets
	EvTxnWrite  // logical write plan issued; Obj, Procs = plan targets
	EvTxnCommit // transaction committed
	EvTxnAbort  // transaction aborted; Msg = reason
	EvTxnDeny   // transaction refused at submit (rule R1); Msg = reason

	// --- messages ---
	EvMsgSend // message sent; Peer = destination, Msg = wire kind
	EvMsgRecv // message delivered; Peer = source, Msg = wire kind
	EvMsgDrop // message lost (link down, drop probability, backpressure)

	// --- harness and logging ---
	EvPlacement // harness-emitted: Obj's copies live at Procs
	EvLog       // freeform structured log line; Msg = text

	// --- transport health (TCP engine) ---
	EvPeerDown  // the connection to Peer was lost (or could not be dialed)
	EvPeerUp    // a connection to Peer was established; Aux = dial attempts
	EvReconnect // a connection to Peer was re-established after a loss; Aux = attempts

	// --- client gateway ---
	EvGwAdmit // gateway admitted a client request; Aux = in-flight count
	EvGwShed  // gateway shed a request at admission; Aux = queue depth
	EvGwBatch // gateway flushed a group-commit round; Aux = constituent writes
	EvGwStale // a sessioned read observed pre-session state; Obj, Aux = attempt

	// --- causal tracing ---
	EvSpan // a span closed; Ctx = its context, Msg = phase, Aux = duration ns

	numKinds // sentinel
)

var kindNames = [numKinds]string{
	EvUnknown:      "unknown",
	EvProbeSend:    "probe-send",
	EvProbeAck:     "probe-ack",
	EvVPInvite:     "vp-invite",
	EvVPAccept:     "vp-accept",
	EvVPCommit:     "vp-commit",
	EvVPJoin:       "vp-join",
	EvVPDepart:     "vp-depart",
	EvRefreshStart: "refresh-start",
	EvRefreshServe: "refresh-serve",
	EvRefreshSkip:  "refresh-skip",
	EvRefreshDone:  "refresh-done",
	EvTxnBegin:     "txn-begin",
	EvTxnRead:      "txn-read",
	EvTxnWrite:     "txn-write",
	EvTxnCommit:    "txn-commit",
	EvTxnAbort:     "txn-abort",
	EvTxnDeny:      "txn-deny",
	EvMsgSend:      "msg-send",
	EvMsgRecv:      "msg-recv",
	EvMsgDrop:      "msg-drop",
	EvPlacement:    "placement",
	EvLog:          "log",
	EvPeerDown:     "peer-down",
	EvPeerUp:       "peer-up",
	EvReconnect:    "reconnect",
	EvGwAdmit:      "gw-admit",
	EvGwShed:       "gw-shed",
	EvGwBatch:      "gw-batch",
	EvGwStale:      "gw-stale",
	EvSpan:         "span",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts EventKind.String. It returns EvUnknown, false for an
// unrecognized name.
func ParseKind(s string) (EventKind, bool) {
	for k, name := range kindNames {
		if name == s {
			return EventKind(k), true
		}
	}
	return EvUnknown, false
}

// Event is one recorded protocol event. Fields beyond Kind, At and Proc
// are populated per kind (see the EventKind comments); unused fields stay
// zero so the struct records with no allocation.
type Event struct {
	// Seq is the recorder-assigned global sequence number, starting at 1.
	// Under simulation it is a deterministic function of the seed.
	Seq uint64
	// At is the engine time (virtual under simulation).
	At time.Duration
	// Proc is the processor the event happened at (NoProc for harness
	// events such as placements).
	Proc model.ProcID
	Kind EventKind
	// VP is the virtual partition context (epoch for txn events).
	VP model.VPID
	// Txn identifies the transaction for txn events.
	Txn model.TxnID
	// Obj names the logical object for access and refresh events.
	Obj model.ObjectID
	// Peer is the other party (message destination/source, probe acker).
	Peer model.ProcID
	// Msg is a static message-kind name or a log/abort-reason text.
	Msg string
	// Aux is a small per-kind payload: byte counts, plan sizes, seqs.
	Aux int64
	// Ctx is the causal trace context for EvSpan events: the span's own id
	// and parent within its trace.
	Ctx model.TraceCtx
	// Procs is a processor set (view for joins/commits, plan targets for
	// logical accesses, holders for placements).
	Procs model.ProcSet
	// Shard scopes the event to one shard of a sharded deployment (see
	// internal/shard). Zero in unsharded runs, where a single partition
	// governs the cluster.
	Shard model.ShardID
}

// HasEpoch reports whether the event carries a virtual partition epoch
// (partition-free protocols record the zero VPID).
func (e *Event) HasEpoch() bool { return !e.VP.IsZero() }

// DefaultCap is the ring capacity used when New is given a non-positive
// one: enough for the full message trace of a multi-second simulated run.
const DefaultCap = 1 << 16

// Recorder is a bounded, concurrency-safe event ring. The zero state of a
// nil *Recorder is a valid, permanently-disabled recorder, so engines can
// expose one unconditionally.
type Recorder struct {
	on atomic.Bool

	mu      sync.Mutex
	buf     []Event
	cap     int
	next    int    // next write position in buf
	filled  int    // entries currently held (≤ cap)
	seq     uint64 // total events ever recorded
	dropped uint64 // events overwritten by ring wrap

	// shard and parent implement WithShard: a derived handle stamps each
	// event's Shard and delegates storage to its root recorder. Only the
	// root owns ring state; every accessor resolves through root().
	shard  model.ShardID
	parent *Recorder
}

// root resolves a derived (WithShard) handle to the recorder that owns
// the ring. Safe on nil.
func (r *Recorder) root() *Recorder {
	if r != nil && r.parent != nil {
		return r.parent
	}
	return r
}

// WithShard returns a recording handle that stamps every event with
// shard s before storing it in r's ring (events already carrying a
// shard keep theirs). The handle shares r's enable state and storage.
// Safe on nil; s == NoShard returns r unchanged.
func (r *Recorder) WithShard(s model.ShardID) *Recorder {
	if r == nil || s == model.NoShard {
		return r
	}
	return &Recorder{shard: s, parent: r.root()}
}

// New returns a recorder with the given ring capacity (DefaultCap when
// capacity <= 0). The ring storage is allocated lazily on first enable,
// so constructing a disabled recorder is cheap.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{cap: capacity}
}

// Enabled reports whether events are being recorded. Safe on nil.
func (r *Recorder) Enabled() bool { return r != nil && r.root().on.Load() }

// SetEnabled switches recording on or off. Enabling allocates the ring
// storage on first use. No-op on nil.
func (r *Recorder) SetEnabled(on bool) {
	if r = r.root(); r == nil {
		return
	}
	if on {
		r.mu.Lock()
		if r.buf == nil {
			r.buf = make([]Event, r.cap)
		}
		r.mu.Unlock()
	}
	r.on.Store(on)
}

// Record appends one event, stamping its Seq. Disabled or nil recorders
// return immediately; enabled ones copy the event into the preallocated
// ring (zero allocations) and overwrite the oldest entry when full.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if r.parent != nil {
		if ev.Shard == model.NoShard {
			ev.Shard = r.shard
		}
		r = r.parent
	}
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if len(r.buf) == 0 { // enabled via direct field fiddling in tests
		r.buf = make([]Event, r.cap)
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.filled < len(r.buf) {
		r.filled++
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Len returns the number of events currently retained.
func (r *Recorder) Len() int {
	if r = r.root(); r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filled
}

// Total returns the number of events ever recorded (retained + dropped).
func (r *Recorder) Total() uint64 {
	if r = r.root(); r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r = r.root(); r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r = r.root(); r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.filled)
	start := r.next - r.filled
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.filled; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Reset discards all retained events and restarts the sequence counter.
func (r *Recorder) Reset() {
	if r = r.root(); r == nil {
		return
	}
	r.mu.Lock()
	r.next, r.filled, r.seq, r.dropped = 0, 0, 0, 0
	r.mu.Unlock()
}

// Span records one closed span: the phase name is a static string, the
// event time is the span's end, and Aux carries the duration so the span
// reconstructs as [At-Aux, At] without a second event. Disabled or nil
// recorders return before touching the arguments, so call sites need no
// guard and pay no allocation.
func (r *Recorder) Span(proc model.ProcID, ctx model.TraceCtx, phase string, start, end time.Duration, txn model.TxnID) {
	if !r.Enabled() || ctx.IsZero() {
		return
	}
	r.Record(Event{At: end, Proc: proc, Kind: EvSpan, Txn: txn, Msg: phase, Aux: int64(end - start), Ctx: ctx})
}

// Logf records a freeform EvLog event when enabled. The format work is
// skipped entirely while disabled, so call sites need no guard.
func (r *Recorder) Logf(at time.Duration, proc model.ProcID, format string, args ...any) {
	if !r.Enabled() {
		return
	}
	r.Record(Event{At: at, Proc: proc, Kind: EvLog, Msg: fmt.Sprintf(format, args...)})
}
