// Package net provides the communication substrate: a dynamic
// can-communicate graph with per-link latency, plus two engines that
// drive the same protocol code — a deterministic simulated cluster
// (virtual time) and a TCP transport, deployed one node per process or
// in-process on loopback. Over TCP the graph is imposed as an
// Interceptor (Topology.Outbound), so a partition, a crash cut, a lossy
// or a slow link is the same can-communicate relation on either engine.
package net

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Topology models the current can-communicate relation of §3: an
// undirected graph whose edge (a,b) means messages between a and b arrive
// within the latency bound. The relation is NOT assumed transitive — the
// paper's Example 1 depends on a non-transitive graph, and SetLink allows
// constructing one. Topology is safe for concurrent use so TCP nodes can
// consult it (Outbound) while a failure injector reshapes it.
type Topology struct {
	mu   sync.RWMutex
	n    int
	edge map[[2]model.ProcID]bool
	// shardEdge holds, for each shard cut on its own (PartitionShard),
	// the edges that shard's frames may cross. Only Outbound reads it.
	shardEdge         map[model.ShardID]map[[2]model.ProcID]bool
	latency           map[[2]model.ProcID]time.Duration
	baseLat           time.Duration
	dropProb, dupProb float64
	rng               *rand.Rand // Outbound's drop and duplicate draws
}

func edgeKey(a, b model.ProcID) [2]model.ProcID {
	if a > b {
		a, b = b, a
	}
	return [2]model.ProcID{a, b}
}

// NewTopology returns a fully connected topology over processors 1..n
// with the given uniform base latency on every link. It refuses n
// outside 1..model.MaxProc and a non-positive latency.
func NewTopology(n int, baseLatency time.Duration) (*Topology, error) {
	if n < 1 || n > int(model.MaxProc) {
		return nil, fmt.Errorf("net: topology of %d processors, want 1..%d", n, model.MaxProc)
	}
	if baseLatency <= 0 {
		return nil, fmt.Errorf("net: base latency %v, want > 0", baseLatency)
	}
	t := &Topology{
		n:       n,
		baseLat: baseLatency,
		rng:     rand.New(rand.NewSource(1)),
	}
	t.Heal()
	return t, nil
}

// Seed restarts Outbound's drop and duplicate draws from seed. (The
// simulator draws its losses from its engine's generator instead.)
func (t *Topology) Seed(seed int64) {
	t.mu.Lock()
	t.rng = rand.New(rand.NewSource(seed))
	t.mu.Unlock()
}

// Procs returns processor ids 1..n.
func (t *Topology) Procs() []model.ProcID {
	out := make([]model.ProcID, t.n)
	for i := range out {
		out[i] = model.ProcID(i + 1)
	}
	return out
}

func (t *Topology) check(p model.ProcID) {
	if p < 1 || int(p) > t.n {
		panic(fmt.Sprintf("net: processor %v out of range 1..%d", p, t.n))
	}
}

// FullMesh connects every pair of processors.
func (t *Topology) FullMesh() { t.Partition(t.Procs()) }

// SetLink connects or disconnects the single edge (a, b). Use it to build
// non-transitive graphs such as the paper's Figure 1.
func (t *Topology) SetLink(a, b model.ProcID, up bool) {
	t.check(a)
	t.check(b)
	if a == b {
		return // a processor can always talk to itself (property S2)
	}
	t.mu.Lock()
	t.edge[edgeKey(a, b)] = up
	t.mu.Unlock()
}

// SetLatency overrides the latency of the edge (a, b).
func (t *Topology) SetLatency(a, b model.ProcID, d time.Duration) {
	t.check(a)
	t.check(b)
	if d <= 0 {
		panic("net: latency must be positive")
	}
	t.mu.Lock()
	t.latency[edgeKey(a, b)] = d
	t.mu.Unlock()
}

// Slow sets every link's latency to the base latency plus extra (a
// uniform performance failure: messages still arrive, later than the
// bound assumes).
func (t *Topology) Slow(extra time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for a := 1; a <= t.n; a++ {
		for b := a + 1; b <= t.n; b++ {
			t.latency[edgeKey(model.ProcID(a), model.ProcID(b))] = t.baseLat + extra
		}
	}
}

// Heal restores a fault-free network: a full mesh, no shard cut, the
// base latency on every link, no loss and no duplicates.
func (t *Topology) Heal() {
	t.FullMesh()
	t.mu.Lock()
	t.shardEdge = make(map[model.ShardID]map[[2]model.ProcID]bool)
	t.latency = make(map[[2]model.ProcID]time.Duration)
	t.dropProb, t.dupProb = 0, 0
	t.mu.Unlock()
}

// SetDropProb sets the probability that a message on a healthy link is
// lost (an omission failure that is not a partition).
func (t *Topology) SetDropProb(p float64) {
	if p < 0 || p > 1 {
		panic("net: drop probability out of range")
	}
	t.mu.Lock()
	t.dropProb = p
	t.mu.Unlock()
}

// DropProb returns the current message-loss probability.
func (t *Topology) DropProb() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dropProb
}

// SetDupProb sets the probability that Outbound sends a message on a
// healthy link twice. The simulator has no duplicate path.
func (t *Topology) SetDupProb(p float64) {
	if p < 0 || p > 1 {
		panic("net: duplicate probability out of range")
	}
	t.mu.Lock()
	t.dupProb = p
	t.mu.Unlock()
}

// Partition reshapes the graph into the given groups: processors within a
// group are fully connected, processors in different groups cannot
// communicate. Processors not mentioned in any group are isolated.
func (t *Topology) Partition(groups ...[]model.ProcID) {
	edge := t.groupEdges(groups)
	t.mu.Lock()
	t.edge = edge
	t.mu.Unlock()
}

// PartitionShard cuts only shard s's frames (wire.ShardMsg and the
// shard's epoch probes) into the given groups, as Partition cuts every
// message; every other shard's traffic follows the graph. Heal lifts it.
// Only Outbound reads it: the simulator has no shard cut.
func (t *Topology) PartitionShard(s model.ShardID, groups ...[]model.ProcID) {
	edge := t.groupEdges(groups)
	t.mu.Lock()
	t.shardEdge[s] = edge
	t.mu.Unlock()
}

// groupEdges returns every edge, up exactly when both ends are in the
// same group.
func (t *Topology) groupEdges(groups [][]model.ProcID) map[[2]model.ProcID]bool {
	group := make(map[model.ProcID]int)
	for gi, g := range groups {
		for _, p := range g {
			t.check(p)
			if _, dup := group[p]; dup {
				panic(fmt.Sprintf("net: processor %v in two partition groups", p))
			}
			group[p] = gi + 1
		}
	}
	edge := make(map[[2]model.ProcID]bool)
	for a := 1; a <= t.n; a++ {
		for b := a + 1; b <= t.n; b++ {
			pa, pb := model.ProcID(a), model.ProcID(b)
			ga, oka := group[pa]
			gb, okb := group[pb]
			edge[edgeKey(pa, pb)] = oka && okb && ga == gb
		}
	}
	return edge
}

// Crash isolates a processor: every incident edge goes down. (The paper
// models a crashed processor as a trivial communication cluster.)
func (t *Topology) Crash(p model.ProcID) { t.setIncident(p, false) }

// Recover reconnects a processor to every processor it is supposed to
// reach in a full mesh. For partial recovery use SetLink.
func (t *Topology) Recover(p model.ProcID) { t.setIncident(p, true) }

func (t *Topology) setIncident(p model.ProcID, up bool) {
	t.check(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	for q := 1; q <= t.n; q++ {
		if model.ProcID(q) != p {
			t.edge[edgeKey(p, model.ProcID(q))] = up
		}
	}
}

// Connected reports whether a and b can currently communicate. Every
// processor can communicate with itself.
func (t *Topology) Connected(a, b model.ProcID) bool {
	if a == b {
		return true
	}
	t.check(a)
	t.check(b)
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.edge[edgeKey(a, b)]
}

// Outbound implements Interceptor over the state the simulator delivers
// by. A message on a link that is down, or across its shard's cut, is
// dropped. One on a link that is up is lost with the drop probability,
// sent twice with the duplicate probability, and held back by the link's
// latency above base.
func (t *Topology) Outbound(from, to model.ProcID, m wire.Message) Verdict {
	if from == to {
		return Verdict{}
	}
	t.check(from)
	t.check(to)
	k := edgeKey(from, to)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.edge[k] || !t.shardConnected(k, m) {
		return Verdict{Drop: true}
	}
	if t.dropProb > 0 && t.rng.Float64() < t.dropProb {
		return Verdict{Drop: true}
	}
	v := Verdict{}
	if d, ok := t.latency[k]; ok {
		v.Delay = d - t.baseLat
	}
	v.Duplicate = t.dupProb > 0 && t.rng.Float64() < t.dupProb
	return v
}

// shardConnected reports whether m may cross edge k under its shard's
// cut, if it names a shard that has one. Caller holds t.mu.
func (t *Topology) shardConnected(k [2]model.ProcID, m wire.Message) bool {
	if len(t.shardEdge) == 0 {
		return true
	}
	s := model.NoShard
	switch msg := m.(type) {
	case wire.ShardMsg:
		s = msg.Shard
	case wire.ShardEpochReq:
		s = msg.Shard
	case wire.ShardEpochResp:
		s = msg.Shard
	}
	cut, ok := t.shardEdge[s]
	return !ok || cut[k]
}

// Latency returns the delivery delay of the edge (a, b). Self-delivery
// is instantaneous apart from event scheduling.
func (t *Topology) Latency(a, b model.ProcID) time.Duration {
	if a == b {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if d, ok := t.latency[edgeKey(a, b)]; ok {
		return d
	}
	return t.baseLat
}
