package net

import (
	"math/rand"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Per-kind message counter names, shared by the two engines.
var (
	sentByKind      = metrics.NewFamily(metrics.CMsgSent)
	deliveredByKind = metrics.NewFamily(metrics.CMsgDelivered)
)

// TimerID identifies a pending timer for cancellation.
type TimerID uint64

// Runtime is the execution environment handed to a node on every event.
// The simulated and TCP engines implement it identically from the
// node's point of view; protocol code must interact with the outside
// world only through it.
type Runtime interface {
	// ID returns the processor this node runs as ("myid" in the paper).
	ID() model.ProcID
	// Procs returns all processor ids in the system (the set P).
	Procs() []model.ProcID
	// Now returns the current time (virtual under simulation).
	Now() time.Duration
	// Send transmits a message. Sending to model.NoProc routes to the
	// client sink (transaction results). Delivery is best-effort: links
	// may be down and messages may be lost — exactly the omission and
	// performance failures of §2. The message carries the ambient trace
	// context of the event being handled (see TraceCtx), so protocol
	// fan-outs propagate causality without changing call sites.
	Send(to model.ProcID, m wire.Message)
	// SendCtx is Send with an explicit trace context, used where a
	// subsystem opens a child span and wants the outbound messages
	// parented under it rather than under the inbound context.
	SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx)
	// TraceCtx returns the trace context the message being handled
	// arrived with (zero for untraced messages, timers, and submits).
	TraceCtx() model.TraceCtx
	// SetTimer schedules OnTimer(key) after d. Timers always fire unless
	// cancelled; they are local and unaffected by the network.
	SetTimer(d time.Duration, key any) TimerID
	// CancelTimer cancels a pending timer; no-op if already fired.
	CancelTimer(id TimerID)
	// Distance returns the current latency estimate to another processor,
	// used to pick the *nearest* copy for rule R2.
	Distance(to model.ProcID) time.Duration
	// Rand returns this node's deterministic random source.
	Rand() *rand.Rand
	// Metrics returns the cluster-wide metrics registry.
	Metrics() *metrics.Registry
	// Tracer returns the structured event recorder. It may be nil or
	// disabled — trace.Recorder methods tolerate both — so protocol code
	// records unconditionally and pays one branch when tracing is off.
	Tracer() *trace.Recorder
	// Logf records a structured EvLog trace line when tracing is enabled
	// (and, under simulation, echoes it to the engine's text sink).
	Logf(format string, args ...any)
}

// Poster is the re-entry seam of an engine whose handlers run beside
// other goroutines (TCPNode): Post runs fn as one handler
// turn of the node — never concurrently with OnMessage, OnTimer or
// another fn — with the runtime the engine hands its handler and no
// ambient trace context. It is how work finished elsewhere — a journal's
// committer releasing a barrier — gets back into the handler's
// single-threaded world, and is safe from any goroutine not itself
// inside a turn of that node. TCPNode runs it before Post returns, on
// the caller's goroutine under the handler mutex. A runtime value may be retained
// past its event for this call alone. SimCluster has one goroutine and
// nothing to post from.
type Poster interface {
	Post(fn func(rt Runtime))
}

// Handler is a node: a deterministic state machine driven by messages and
// timers. The engine guarantees the three methods (and posted functions)
// are never invoked concurrently for the same node — the simulator's one
// goroutine, or in TCPNode a mutex around each invocation — so handlers need
// no internal locking. Successive invocations may be on different
// goroutines, and none may wait for another of the same node.
type Handler interface {
	// Init is called once before any message or timer.
	Init(rt Runtime)
	// OnMessage delivers a message from another processor (or from
	// model.NoProc for client requests).
	OnMessage(rt Runtime, from model.ProcID, m wire.Message)
	// OnTimer fires a timer set via Runtime.SetTimer.
	OnTimer(rt Runtime, key any)
}
