package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	vnet "github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

// submitter is the backend the gateway's request paths talk to; the
// pool implements it against the live cluster and tests implement it
// with fakes.
type submitter interface {
	// Submit runs one transaction to completion (committed) or to the
	// deadline, retrying across nodes. preferred, when non-zero, names
	// the node tried first — session affinity. ctx, when non-zero, is the
	// trace context the submission's wire frames carry, parenting the
	// node-side spans under the gateway's request span. It reports which
	// node served the returned result.
	Submit(t wire.ClientTxn, ctx model.TraceCtx, preferred model.ProcID, deadline time.Time) (wire.ClientResult, model.ProcID, error)
}

// pool maintains one persistent multiplexed connection per cluster node
// (vnet.Client — results matched by tag over a single conn) plus a
// per-node circuit breaker, and routes each submission to a live node:
// the session's preferred node first, then the rest in rotation.
//
// A transport error on submit opens the node's breaker. A node that
// answers but sits outside any virtual partition denies the access, and
// the submission moves on to the next node.
type pool struct {
	clients map[model.ProcID]*vnet.Client
	ids     []model.ProcID // stable rotation order
	reg     *metrics.Registry

	mu        sync.Mutex
	downUntil map[model.ProcID]time.Time

	rr atomic.Uint64 // round-robin cursor
}

// breakerHold is how long a node stays skipped after a transport error.
// Long enough to stop hammering a dead node with dials, short enough
// that a restarted node is picked back up promptly.
const breakerHold = 500 * time.Millisecond

// newPool builds one client per node; each dials on first use.
func newPool(cluster map[model.ProcID]string, reg *metrics.Registry) *pool {
	p := &pool{
		clients:   make(map[model.ProcID]*vnet.Client, len(cluster)),
		reg:       reg,
		downUntil: make(map[model.ProcID]time.Time),
	}
	for id, addr := range cluster {
		p.clients[id] = vnet.NewClient(addr, perTry)
	}
	p.ids = model.SortedKeys(cluster)
	return p
}

// candidates returns the nodes to try, preferred first, then the rest
// from the rotation cursor, with broken nodes pushed to the back (still present: with every node down we would rather try one
// than instantly fail).
func (p *pool) candidates(preferred model.ProcID) []model.ProcID {
	now := time.Now()
	start := int(p.rr.Add(1))
	ordered := make([]model.ProcID, 0, len(p.ids))
	if _, ok := p.clients[preferred]; ok {
		ordered = append(ordered, preferred)
	}
	for i := 0; i < len(p.ids); i++ {
		id := p.ids[(start+i)%len(p.ids)]
		if id != preferred {
			ordered = append(ordered, id)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	good := make([]model.ProcID, 0, len(ordered))
	var bad []model.ProcID
	for _, id := range ordered {
		if now.Before(p.downUntil[id]) {
			bad = append(bad, id)
		} else {
			good = append(good, id)
		}
	}
	return append(good, bad...)
}

// markDown opens a node's breaker after a transport error.
func (p *pool) markDown(id model.ProcID) {
	p.mu.Lock()
	p.downUntil[id] = time.Now().Add(breakerHold)
	p.mu.Unlock()
	p.reg.Inc(metrics.CGwNodeDown, 1)
}

// Submit implements submitter: it walks the candidate nodes with
// per-attempt timeout perTry and exponential backoff between sweeps,
// until the transaction commits or the deadline passes. Transport
// errors open the node's breaker and move on; denied results (object
// inaccessible from that node's partition — rule R1) retry elsewhere,
// since another partition may hold the objects. After close it fails
// at once with errGatewayClosed. Like SubmitTCPRetry this is an
// at-least-once contract: an attempt whose result was lost may have
// executed.
func (p *pool) Submit(t wire.ClientTxn, ctx model.TraceCtx, preferred model.ProcID, deadline time.Time) (wire.ClientResult, model.ProcID, error) {
	// The first retry is immediate: the common abort is a wait-die victim
	// racing a lock its predecessor has already logically released (the
	// commit messages are in flight to the replicas), which clears in
	// microseconds — and group-commit rounds serialize behind this retry,
	// so sleeping here would put a floor under every round. Persistent
	// aborts back off exponentially so a wedged cluster sees the pressure
	// drop away.
	backoff := time.Duration(0)
	const backoffStep = 2 * time.Millisecond
	var lastRes wire.ClientResult
	var lastNode model.ProcID
	var lastErr error
	for {
		for _, id := range p.candidates(preferred) {
			remain := time.Until(deadline)
			if remain <= 0 {
				return p.exhausted(lastRes, lastNode, lastErr)
			}
			try := min(perTry, remain)
			res, err := p.clients[id].SubmitCtx(t, ctx, try)
			if errors.Is(err, vnet.ErrClientClosed) {
				return wire.ClientResult{}, model.NoProc, errGatewayClosed // the pool is closed: no node will answer
			}
			if err != nil {
				p.markDown(id)
				lastErr, lastNode = err, id
				continue
			}
			if res.Committed {
				return res, id, nil
			}
			lastRes, lastNode, lastErr = res, id, nil
			if !res.Denied {
				// A genuine abort (deadlock victim, conflict): back off and
				// retry rather than hammering the next node immediately.
				break
			}
		}
		if time.Now().Add(backoff).After(deadline) {
			return p.exhausted(lastRes, lastNode, lastErr)
		}
		time.Sleep(backoff)
		switch {
		case backoff == 0:
			backoff = backoffStep
		case backoff < time.Second:
			backoff *= 2
		default:
			backoff = time.Second
		}
	}
}

func (p *pool) exhausted(res wire.ClientResult, node model.ProcID, err error) (wire.ClientResult, model.ProcID, error) {
	if err == nil {
		err = fmt.Errorf("gateway: submit deadline passed (last result: committed=%v denied=%v reason=%q)",
			res.Committed, res.Denied, res.Reason)
	}
	return res, node, err
}

// close tears down every connection.
func (p *pool) close() {
	for _, c := range p.clients {
		c.Close()
	}
}

// poolStatus is the routing state reported under /gw/stats.
type poolStatus struct {
	Node model.ProcID `json:"node"`
	Addr string       `json:"addr"`
	Down bool         `json:"down,omitempty"`
}

func (p *pool) status() []poolStatus {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]poolStatus, 0, len(p.ids))
	for _, id := range p.ids {
		out = append(out, poolStatus{
			Node: id,
			Addr: p.clients[id].Addr(),
			Down: now.Before(p.downUntil[id]),
		})
	}
	return out
}
