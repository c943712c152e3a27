// Package sim provides a deterministic discrete-event engine: a virtual
// clock, an event queue ordered by (time, insertion sequence), and a
// seeded random source.
//
// All protocol code in this repository is written against virtual time, so
// a whole cluster — network, timers, failure schedule, workload — runs as
// a single-threaded simulation that is exactly reproducible from its seed.
// The paper's timing parameters (the message-delay bound δ and the probe
// period π) map directly onto event delays.
//
// The engine is the hottest path in the repository (RunAll executes up to
// 50M events per experiment), so the queue is built for zero steady-state
// allocation: events live in a pooled arena with a free list, and the
// priority queue is a hand-specialized 4-ary min-heap of arena indices.
// Unlike container/heap, whose Push/Pop(any) interface boxes every event,
// scheduling on a warm engine touches no allocator at all. Execution order
// is a pure function of (time, sequence), so the heap's internal layout —
// arity, compaction, slot reuse — cannot affect simulation results.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Engine is a discrete-event scheduler. It is not safe for concurrent
// use: everything runs on the caller's goroutine, which is the point.
type Engine struct {
	now time.Duration
	seq uint64

	// arena holds every event slot ever created; free lists the indices
	// available for reuse. A slot is recycled (generation bumped, closure
	// released) as soon as its event executes or its cancellation is
	// noticed, so long runs converge on a small resident set.
	arena []event
	free  []int32

	// heap is a 4-ary min-heap of arena indices ordered by (at, seq).
	// Cancelled events stay in the heap (lazy deletion) until they
	// surface at the root or until compact() sweeps them; dead counts
	// them so QueueLen stays O(1) and sweeps trigger at the right time.
	heap []int32
	live int
	dead int

	rng     *rand.Rand
	stopped bool
}

type event struct {
	at    time.Duration
	seq   uint64 // tie-break: FIFO among simultaneous events
	gen   uint32 // bumped on recycle so stale Handles go inert
	dead  bool
	label string
	fn    func()
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is inert. A Handle never outlives its event: once the event runs
// (or its cancellation is collected) the slot's generation moves on and
// the Handle goes inert, so holding Handles cannot retain memory.
type Handle struct {
	e   *Engine
	idx int32
	gen uint32
}

// At schedules fn to run at the given absolute virtual time. Scheduling
// in the past runs at the current time (i.e. before any later events).
// label names the event in diagnostics.
func (e *Engine) At(t time.Duration, label string, fn func()) Handle {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at, ev.seq, ev.label, ev.fn, ev.dead = t, e.seq, label, fn, false
	e.push(idx)
	e.live++
	return Handle{e: e, idx: idx, gen: ev.gen}
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, label string, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, label, fn)
}

// Cancel prevents a scheduled event from running. Cancelling an already
// executed or already cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.e == nil {
		return
	}
	ev := &h.e.arena[h.idx]
	if ev.gen != h.gen || ev.dead || ev.fn == nil {
		return
	}
	ev.dead = true
	ev.fn = nil // release the closure now; the heap entry is swept lazily
	h.e.live--
	h.e.dead++
	if h.e.dead > len(h.e.heap)/2 {
		h.e.compact()
	}
}

// Pending reports whether the event has neither run nor been cancelled.
func (h Handle) Pending() bool {
	if h.e == nil {
		return false
	}
	ev := &h.e.arena[h.idx]
	return ev.gen == h.gen && !ev.dead && ev.fn != nil
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Steps runs events until the queue is empty, the engine is stopped, or
// max events have executed. It returns the number executed.
func (e *Engine) Steps(max int) int {
	n := 0
	for n < max && !e.stopped {
		if !e.step() {
			break
		}
		n++
	}
	return n
}

// Run executes events in order until the queue is empty or the virtual
// clock passes until. Events scheduled at exactly until still run. It
// returns the number of events executed.
func (e *Engine) Run(until time.Duration) int {
	n := 0
	for !e.stopped {
		next := e.peek()
		if next < 0 || e.arena[next].at > until {
			break
		}
		e.step()
		n++
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.stopped = false
	return n
}

// RunAll executes events until the queue is empty (or Stop is called).
// Protocols with periodic timers never drain the queue, so RunAll guards
// against runaways with a generous cap and panics if it is hit.
func (e *Engine) RunAll() int {
	const cap = 50_000_000
	n := e.Steps(cap)
	if n == cap {
		panic("sim: RunAll executed 50M events without draining; periodic timer still armed?")
	}
	e.stopped = false
	return n
}

// peek returns the arena index of the next live event, sweeping dead
// entries off the root, or -1 if the queue is empty.
func (e *Engine) peek() int32 {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		if e.arena[idx].dead {
			e.popMin()
			e.recycle(idx)
			e.dead--
			continue
		}
		return idx
	}
	return -1
}

func (e *Engine) step() bool {
	idx := e.peek()
	if idx < 0 {
		return false
	}
	e.popMin()
	ev := &e.arena[idx]
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v (%s)", e.now, ev.at, ev.label))
	}
	e.now = ev.at
	// Copy out before recycling: fn may schedule into this very slot.
	fn := ev.fn
	e.recycle(idx)
	e.live--
	fn()
	return true
}

// recycle returns an arena slot to the free list and invalidates any
// outstanding Handles to it.
func (e *Engine) recycle(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.label = ""
	e.free = append(e.free, idx)
}

// QueueLen returns the number of live scheduled events in O(1); cancelled
// events are never counted.
func (e *Engine) QueueLen() int { return e.live }

// heapSize returns the number of heap entries including not-yet-swept
// cancelled events (for tests asserting compaction behavior).
func (e *Engine) heapSize() int { return len(e.heap) }

// ---------------------------------------------------------------------------
// 4-ary min-heap of arena indices, ordered by (at, seq)
// ---------------------------------------------------------------------------

func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *Engine) push(idx int32) {
	e.heap = append(e.heap, idx)
	e.up(len(e.heap) - 1)
}

func (e *Engine) popMin() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = last
		e.down(0)
	}
}

func (e *Engine) up(i int) {
	idx := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(idx, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = idx
}

func (e *Engine) down(i int) {
	n := len(e.heap)
	idx := e.heap[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if e.less(e.heap[k], e.heap[best]) {
				best = k
			}
		}
		if !e.less(e.heap[best], idx) {
			break
		}
		e.heap[i] = e.heap[best]
		i = best
	}
	e.heap[i] = idx
}

// compact sweeps every cancelled entry out of the heap in one pass and
// re-heapifies. Triggered when dead entries outnumber live ones, so the
// heap never retains more than ~2× the live event count.
func (e *Engine) compact() {
	kept := e.heap[:0]
	for _, idx := range e.heap {
		if e.arena[idx].dead {
			e.recycle(idx)
			continue
		}
		kept = append(kept, idx)
	}
	e.heap = kept
	e.dead = 0
	for i := (len(e.heap) - 2) / 4; i >= 0 && len(e.heap) > 1; i-- {
		e.down(i)
	}
}
