package gateway

import (
	"sync/atomic"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/trace"
)

// admission enforces the gateway's overload policy: at most maxInflight
// requests are being served at once, at most maxQueue more may wait for
// a slot, and everything beyond that is shed immediately with a fast
// 503. Shedding at the door keeps the latency of admitted requests
// bounded — the alternative, an unbounded queue, converts overload into
// timeouts for everyone.
type admission struct {
	sem      chan struct{} // one token per in-flight slot
	queued   atomic.Int64
	maxQueue int64
	reg      *metrics.Registry
	tr       *trace.Recorder
	clock    func() time.Duration // trace timestamps
}

func newAdmission(maxInflight, maxQueue int, reg *metrics.Registry, tr *trace.Recorder, clock func() time.Duration) *admission {
	return &admission{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
		reg:      reg,
		tr:       tr,
		clock:    clock,
	}
}

// acquire tries to admit one request, waiting in the bounded queue up
// to wait for an in-flight slot. It returns a release func on
// admission, nil when the request is shed.
func (a *admission) acquire(wait time.Duration) func() {
	// Fast path: a free slot, no queueing.
	select {
	case a.sem <- struct{}{}:
		a.admitted()
		return a.release
	default:
	}
	if q := a.queued.Add(1); q > a.maxQueue {
		a.queued.Add(-1)
		a.shed(q)
		return nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.queued.Add(-1)
		a.admitted()
		return a.release
	case <-timer.C:
		q := a.queued.Add(-1)
		a.shed(q + 1)
		return nil
	}
}

func (a *admission) release() { <-a.sem }

// inflight returns the number of admitted, unreleased requests.
func (a *admission) inflight() int { return len(a.sem) }

func (a *admission) admitted() {
	a.reg.Inc(metrics.CGwAdmitted, 1)
	if a.tr.Enabled() {
		a.tr.Record(trace.Event{At: a.clock(), Kind: trace.EvGwAdmit, Aux: int64(len(a.sem))})
	}
}

func (a *admission) shed(depth int64) {
	a.reg.Inc(metrics.CGwShed, 1)
	if a.tr.Enabled() {
		a.tr.Record(trace.Event{At: a.clock(), Kind: trace.EvGwShed, Aux: depth})
	}
}
