package node

import (
	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/net"
)

// Promise is the node's durable outbox: then — the sends that let a
// promise out of the processor — runs once every record appended to the
// journal so far is durable. The handler never waits for the disk: with
// a committing journal Promise returns at once, the handler moves on to
// its next event, and then comes back onto the event loop through
// net.Poster after the fsync (shared with every other promise that was
// waiting). With a journal that syncs on the caller's goroutine (a
// durable.MemJournal, as every simulated node runs), then runs before
// Promise returns, which keeps simulated runs in the exact order they
// had when the barrier was inline.
//
// Urgency follows from who waits: urgent when a client's latency does
// (a yes-vote, a decision, a view invitation), lazy when nobody's does
// (a decide acknowledgement). DESIGN §12 tables every call site.
//
// A failed flush halts the node and drops then: nothing gated on an
// undurable record is ever sent.
func (b *Base) Promise(rt net.Runtime, urgent bool, then func(rt net.Runtime)) {
	start := rt.Now()
	release := func(rt net.Runtime, err error) {
		if b.halted {
			return // an earlier waiter on the same failed flush halted us
		}
		if err != nil {
			b.halt(rt, err)
			return
		}
		rt.Metrics().ObserveDuration(metrics.SJournalBarrierWait, rt.Now()-start)
		then(rt)
	}
	done, err := b.Journal.Barrier(urgent, func(err error) {
		// Committer goroutine: hand the continuation back to the event
		// loop so handlers stay single-threaded.
		rt.(net.Poster).Post(func(rt net.Runtime) { release(rt, err) })
	})
	if done {
		release(rt, err)
	}
}

// halt takes the node out of the protocol for good (see Halted).
func (b *Base) halt(rt net.Runtime, err error) {
	b.halted = true
	rt.Metrics().Set(metrics.CNodeHalted, 1)
	rt.Logf("journal barrier failed; node halted: %v", err)
	if b.OnHalt != nil {
		b.OnHalt(err)
	}
}
