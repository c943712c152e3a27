package shard

import (
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// shardTimer namespaces a shard node's timer keys so the router can
// return each firing to the right shard.
type shardTimer struct {
	S   model.ShardID
	Key any
}

// epochTick refreshes the router's epoch cache for non-hosted shards.
type epochTick struct{}

// shardRT is the runtime a shard's core.Node sees: the processor
// universe shrinks to the shard's copy set, every outbound message is
// wrapped in a wire.ShardMsg frame, timers are namespaced, and traces
// are stamped with the shard. Through this lens the unmodified
// virtual-partition node runs its whole lifecycle — probes, view
// formation, R5 catch-up — scoped to one shard.
type shardRT struct {
	net.Runtime
	s model.ShardID
	r *Router
}

func (w shardRT) Procs() []model.ProcID { return w.r.m.MemberList(w.s) }

func (w shardRT) Send(to model.ProcID, m wire.Message) {
	w.Runtime.Send(to, wire.ShardMsg{Shard: w.s, Msg: m})
}

func (w shardRT) SendCtx(to model.ProcID, m wire.Message, ctx model.TraceCtx) {
	w.Runtime.SendCtx(to, wire.ShardMsg{Shard: w.s, Msg: m}, ctx)
}

func (w shardRT) SetTimer(d time.Duration, key any) net.TimerID {
	return w.Runtime.SetTimer(d, shardTimer{S: w.s, Key: key})
}

// Post implements net.Poster over a posting engine: the continuation
// comes back through the router to this shard's lens, so a barrier a
// shard node registered releases into that same shard node.
func (w shardRT) Post(fn func(rt net.Runtime)) {
	w.Runtime.(net.Poster).Post(func(rt net.Runtime) {
		w.r.rt = rt
		fn(w.r.shardRT(rt, w.s))
	})
}

func (w shardRT) Tracer() *trace.Recorder {
	return w.r.shardTracer(w.s, w.Runtime.Tracer())
}
