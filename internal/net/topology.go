// Package net provides the communication substrate: a dynamic
// can-communicate graph with per-link latency, plus two engines that
// drive the same protocol code — a deterministic simulated cluster
// (virtual time) and a TCP transport, deployed one node per process or
// in-process on loopback. Over TCP the graph is imposed as an
// Interceptor (Topology.Outbound), so a partition or a crash cut is the
// same can-communicate relation on either engine.
package net

import (
	"fmt"
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
	mu       sync.RWMutex
	n        int
	edge     map[[2]model.ProcID]bool
	latency  map[[2]model.ProcID]time.Duration
	baseLat  time.Duration
	dropProb float64
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
		edge:    make(map[[2]model.ProcID]bool),
		latency: make(map[[2]model.ProcID]time.Duration),
		baseLat: baseLatency,
	}
	t.FullMesh()
	return t, nil
}

// N returns the number of processors.
func (t *Topology) N() int { return t.n }

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
func (t *Topology) FullMesh() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for a := 1; a <= t.n; a++ {
		for b := a + 1; b <= t.n; b++ {
			t.edge[edgeKey(model.ProcID(a), model.ProcID(b))] = true
		}
	}
}

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

// SlowAll overrides every link's latency to d (a uniform performance
// failure: messages still arrive, later than the bound assumes).
func (t *Topology) SlowAll(d time.Duration) {
	if d <= 0 {
		panic("net: latency must be positive")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for a := 1; a <= t.n; a++ {
		for b := a + 1; b <= t.n; b++ {
			t.latency[edgeKey(model.ProcID(a), model.ProcID(b))] = d
		}
	}
}

// ResetLatencies discards every per-link latency override, restoring the
// uniform base latency everywhere.
func (t *Topology) ResetLatencies() {
	t.mu.Lock()
	t.latency = make(map[[2]model.ProcID]time.Duration)
	t.mu.Unlock()
}

// BaseLatency returns the uniform latency links have without overrides.
func (t *Topology) BaseLatency() time.Duration {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.baseLat
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

// Partition reshapes the graph into the given groups: processors within a
// group are fully connected, processors in different groups cannot
// communicate. Processors not mentioned in any group are isolated.
func (t *Topology) Partition(groups ...[]model.ProcID) {
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
	t.mu.Lock()
	defer t.mu.Unlock()
	for a := 1; a <= t.n; a++ {
		for b := a + 1; b <= t.n; b++ {
			pa, pb := model.ProcID(a), model.ProcID(b)
			ga, oka := group[pa]
			gb, okb := group[pb]
			t.edge[edgeKey(pa, pb)] = oka && okb && ga == gb
		}
	}
}

// Crash isolates a processor: every incident edge goes down. (The paper
// models a crashed processor as a trivial communication cluster.)
func (t *Topology) Crash(p model.ProcID) {
	t.check(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	for q := 1; q <= t.n; q++ {
		if model.ProcID(q) != p {
			t.edge[edgeKey(p, model.ProcID(q))] = false
		}
	}
}

// Recover reconnects a processor to every processor it is supposed to
// reach in a full mesh. For partial recovery use SetLink.
func (t *Topology) Recover(p model.ProcID) {
	t.check(p)
	t.mu.Lock()
	defer t.mu.Unlock()
	for q := 1; q <= t.n; q++ {
		if model.ProcID(q) != p {
			t.edge[edgeKey(p, model.ProcID(q))] = true
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

// Outbound implements Interceptor: a message on a link that is down is
// dropped.
func (t *Topology) Outbound(from, to model.ProcID, _ wire.Message) Verdict {
	return Verdict{Drop: !t.Connected(from, to)}
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

// Neighbors returns the set of processors b (including a itself) with
// Connected(a, b). This is the real communication capability, which the
// harness compares against protocol views in experiments.
func (t *Topology) Neighbors(a model.ProcID) model.ProcSet {
	t.check(a)
	s := model.NewProcSet(a)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for q := 1; q <= t.n; q++ {
		pq := model.ProcID(q)
		if pq != a && t.edge[edgeKey(a, pq)] {
			s.Add(pq)
		}
	}
	return s
}

// Cliques returns the maximal groups of processors that are mutually
// connected AND whose membership equals each member's neighbor set —
// i.e. the communication cliques of §3 in a transitively-consistent
// state. It returns nil for processors whose neighborhoods disagree
// (non-transitive states have no clean clique decomposition).
func (t *Topology) Cliques() []model.ProcSet {
	var out []model.ProcSet
	var seen model.ProcSet
	for _, p := range t.Procs() {
		if seen.Has(p) {
			continue
		}
		nb := t.Neighbors(p)
		for _, q := range nb.Sorted() {
			if t.Neighbors(q) != nb {
				return nil
			}
		}
		seen |= nb
		out = append(out, nb)
	}
	return out
}
