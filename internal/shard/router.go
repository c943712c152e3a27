package shard

import (
	"fmt"
	"time"

	"github.com/virtualpartitions/vp/internal/core"
	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/node"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Router is one processor of a sharded deployment. It implements
// net.Handler and multiplexes, over a single network endpoint:
//
//   - one core.Node per shard this processor holds a copy of, each
//     running the full virtual-partition protocol scoped to its shard's
//     copy set (via shardRT), so every shard forms views, tests rule R1
//     and catches up under rule R5 independently;
//   - one multi-shard transaction coordinator (node.Base whose strategy
//     is a node.Sharder), which pins an epoch per shard a transaction
//     touches and runs two-phase commit across the union of the touched
//     shards' copy sets.
//
// Inbound wire.ShardMsg frames demultiplex by their shard tag:
// coordinator-bound replies (lock responses, votes, decide traffic) go
// to the coordinator keyed by (sender, shard); everything else goes to
// the hosted shard node. Unwrapped messages are the coordinator's own
// traffic (client transactions) plus the epoch-cache protocol.
type Router struct {
	id  model.ProcID
	m   *Map
	cfg core.Config

	coord *node.Base
	nodes map[model.ShardID]*core.Node
	order []model.ShardID

	// rt is the runtime of the dispatch in progress; handlers are never
	// concurrent per node, so stashing it per dispatch is safe. Shard
	// node observers use it to reach the coordinator.
	rt net.Runtime

	// caches hold last-known epochs of shards this processor does not
	// host, maintained by the ShardEpochReq/Resp protocol.
	caches map[model.ShardID]*epochCache

	// tracers caches per-shard recorder views keyed by the engine's root
	// recorder (which can differ between runs of a reused handler).
	tracers    map[model.ShardID]*trace.Recorder
	tracerRoot *trace.Recorder

	// Observer, when set (tests, campaign probes), receives every hosted
	// shard's core.JoinEvent / core.DepartEvent / core.HaltEvent together
	// with its shard; a halt of the coordinator comes with model.NoShard.
	Observer func(s model.ShardID, ev any)
}

type epochCache struct {
	has bool
	vp  model.VPID
	// targets is rule R1 in the cached view, per copy set of the shard
	// catalog, decided as a hosted shard node decides it (core.NewTargets).
	targets core.Targets
}

// NewRouter builds the router of processor id. Its shard nodes and
// coordinator all write through j (nil: one journal in memory, see
// node.NewBase): one processor has ONE journal. Nothing scopes it per
// shard: every copy and staged write a shard node records or drops
// names its object, an object belongs to one shard, and max-id only
// ever rises. st is j's replayed state. Every hosted
// shard node gets its max-id, copies and staged writes and restores
// those of its own objects (or starts fresh when there is nothing to
// restore, see core.New); partition identifiers come from one counter
// per processor, so every shard starting above the global max-id keeps
// S3's never-reuse. The coordinator gets the pending commit decisions
// and undecided votes, which may span shards, and resumes them.
func NewRouter(id model.ProcID, cfg core.Config, m *Map, hist *onecopy.History,
	j durable.Journal, st *durable.State) *Router {

	cfg = cfg.WithDefaults()
	// Weak R4 migration moves a whole partition's transactions at once;
	// there is no per-shard migration path through the router, so the
	// shard nodes run the strict rule (departures abort via the epoch
	// pin, exactly the paper's R4).
	cfg.WeakR4 = false

	r := &Router{
		id:      id,
		m:       m,
		cfg:     cfg,
		nodes:   make(map[model.ShardID]*core.Node),
		caches:  make(map[model.ShardID]*epochCache),
		tracers: make(map[model.ShardID]*trace.Recorder),
	}
	r.coord = node.NewBase(id, cfg.Config, m.Catalog(), &routerStrategy{r: r}, hist, j)
	j = r.coord.Journal
	r.coord.OnHalt = func(err error) {
		if r.Observer != nil {
			r.Observer(model.NoShard, core.HaltEvent{Proc: id, Err: err})
		}
	}

	var shardState *durable.State
	if st != nil {
		shardState = &durable.State{MaxID: st.MaxID, Copies: st.Copies, Staged: st.Staged}
	}
	for _, s := range m.Hosted(id) {
		n := core.New(id, cfg, m.ShardCatalog(s), nil, j, shardState)
		s := s
		n.Observer = func(ev any) { r.onShardEvent(s, ev) }
		r.nodes[s] = n
		r.order = append(r.order, s)
	}
	if st != nil {
		r.coord.RestoreDurable(&durable.State{Decides: st.Decides, Votes: st.Votes})
	}
	return r
}

// Map returns the shard map the router routes by.
func (r *Router) Map() *Map { return r.m }

// Node returns the hosted shard node for s, or nil when this processor
// holds no copy of the shard.
func (r *Router) Node(s model.ShardID) *core.Node { return r.nodes[s] }

// Hosted returns the shards this router runs nodes for, ascending.
func (r *Router) Hosted() []model.ShardID { return r.m.Hosted(r.id) }

func (r *Router) shardRT(rt net.Runtime, s model.ShardID) shardRT {
	return shardRT{Runtime: rt, s: s, r: r}
}

func (r *Router) shardTracer(s model.ShardID, root *trace.Recorder) *trace.Recorder {
	if root != r.tracerRoot {
		r.tracerRoot = root
		r.tracers = make(map[model.ShardID]*trace.Recorder)
	}
	if t, ok := r.tracers[s]; ok {
		return t
	}
	t := root.WithShard(s)
	r.tracers[s] = t
	return t
}

// epochEvery is the refresh period of the non-hosted-shard epoch cache.
// Half a probe period keeps the cache at most one view change behind
// without adding meaningful load (K·RF small messages per period).
func (r *Router) epochEvery() time.Duration { return r.cfg.Pi / 2 }

// Init implements net.Handler.
func (r *Router) Init(rt net.Runtime) {
	r.rt = rt
	r.coord.InitBase(rt)
	for _, s := range r.order {
		r.nodes[s].Init(r.shardRT(rt, s))
	}
	if len(r.order) < r.m.NumShards() {
		rt.SetTimer(r.epochEvery(), epochTick{})
	}
}

// OnMessage implements net.Handler.
func (r *Router) OnMessage(rt net.Runtime, from model.ProcID, m wire.Message) {
	r.rt = rt
	switch msg := m.(type) {
	case wire.ShardMsg:
		r.onShardMsg(rt, from, msg)
	case wire.ShardEpochReq:
		r.onEpochReq(rt, from, msg)
	case wire.ShardEpochResp:
		r.onEpochResp(rt, msg)
	default:
		// Unwrapped traffic belongs to the coordinator (client
		// transactions and, during recovery, resumed decide handshakes
		// from before the participant learned its shard framing).
		r.coord.HandleMessage(rt, from, m)
	}
}

func (r *Router) onShardMsg(rt net.Runtime, from model.ProcID, msg wire.ShardMsg) {
	switch inner := msg.Msg.(type) {
	case wire.LockResp:
		r.coord.HandleShardMessage(rt, from, msg.Shard, inner)
	case wire.Vote:
		r.coord.HandleShardMessage(rt, from, msg.Shard, inner)
	case wire.DecideAck:
		r.coord.HandleShardMessage(rt, from, msg.Shard, inner)
	case wire.DecideQuery:
		r.coord.HandleShardMessage(rt, from, msg.Shard, inner)
	case wire.LockReq:
		r.coord.Witness(inner.Txn) // the coordinator stamps this processor's transactions
		r.toShard(rt, from, msg)
	case wire.Prepare:
		r.coord.Witness(inner.Txn)
		r.toShard(rt, from, msg)
	default:
		r.toShard(rt, from, msg)
	}
}

func (r *Router) toShard(rt net.Runtime, from model.ProcID, msg wire.ShardMsg) {
	if n := r.nodes[msg.Shard]; n != nil {
		n.OnMessage(r.shardRT(rt, msg.Shard), from, msg.Msg)
	}
}

// OnTimer implements net.Handler.
func (r *Router) OnTimer(rt net.Runtime, key any) {
	r.rt = rt
	switch k := key.(type) {
	case shardTimer:
		if n := r.nodes[k.S]; n != nil {
			n.OnTimer(r.shardRT(rt, k.S), k.Key)
		}
	case epochTick:
		r.refreshEpochs(rt)
		rt.SetTimer(r.epochEvery(), epochTick{})
	default:
		r.coord.HandleTimer(rt, key)
	}
}

// onShardEvent runs inside a shard node's dispatch (Observer callback).
// A departure is the shard-scoped R4 moment: every transaction that
// pinned this shard's epoch aborts; transactions on other shards keep
// running — that isolation is the point of per-shard partitions.
func (r *Router) onShardEvent(s model.ShardID, ev any) {
	if _, ok := ev.(core.DepartEvent); ok && r.rt != nil {
		r.coord.ShardEpochChanged(r.rt, s,
			fmt.Sprintf("departed partition of shard %v", s))
	}
	if r.Observer != nil {
		r.Observer(s, ev)
	}
}

// --- epoch cache (shards this processor does not host) ---

func (r *Router) refreshEpochs(rt net.Runtime) {
	for s := model.ShardID(1); int(s) <= r.m.NumShards(); s++ {
		if r.nodes[s] == nil {
			r.requestEpoch(rt, s)
		}
	}
}

func (r *Router) requestEpoch(rt net.Runtime, s model.ShardID) {
	for _, p := range r.m.MemberList(s) {
		rt.Send(p, wire.ShardEpochReq{Shard: s})
	}
}

func (r *Router) onEpochReq(rt net.Runtime, from model.ProcID, q wire.ShardEpochReq) {
	n := r.nodes[q.Shard]
	if n == nil || n.Halted() {
		return
	}
	resp := wire.ShardEpochResp{Shard: q.Shard}
	if n.Assigned() {
		resp.VP = n.CurID()
		resp.Has = true
		resp.View = n.View().Sorted()
	}
	rt.Send(from, resp)
}

func (r *Router) onEpochResp(rt net.Runtime, resp wire.ShardEpochResp) {
	if r.nodes[resp.Shard] != nil || !resp.Has {
		// Hosted shards answer from live state; unassigned responders
		// carry no information (another member may be committed).
		return
	}
	c := r.caches[resp.Shard]
	if c == nil {
		c = &epochCache{}
		r.caches[resp.Shard] = c
	}
	if c.has && !c.vp.Less(resp.VP) {
		return // stale or duplicate answer
	}
	changed := c.has && c.vp != resp.VP
	c.has = true
	c.vp = resp.VP
	c.targets = core.NewTargets(r.m.ShardCatalog(resp.Shard), model.NewProcSet(resp.View...), false)
	if changed {
		// The remote shard moved to a new partition: everything pinned
		// to its old epoch is doomed (rule R4); abort now instead of at
		// the commit-time re-check.
		r.coord.ShardEpochChanged(rt, resp.Shard,
			fmt.Sprintf("shard %v changed partition", resp.Shard))
	}
}
