// Package locks implements a per-processor strict two-phase-locking
// table over local physical copies, with wait-die deadlock avoidance.
//
// The paper assumes (A1) a concurrency control protocol that makes every
// execution conflict-preserving serializable; distributed strict 2PL on
// copies is the canonical such protocol ([EGLT], the reference the paper
// itself cites). Wait-die keeps the system deadlock-free without any
// distributed cycle detection: a requester older than every conflicting
// holder waits, a younger requester dies (aborts).
//
// The table is sharded into a fixed power-of-two number of stripes
// (FNV-1a on the object id), each behind its own mutex, so concurrent
// callers touching different objects proceed in parallel instead of
// convoying on one global lock. Every exported method is safe for
// concurrent use. Operations on a single object are atomic; compound
// operations spanning objects (ReleaseAll, Txns) are not atomic
// snapshots — callers must serialize operations of the same transaction,
// which the node's transaction state machine already guarantees.
package locks

import (
	"fmt"
	"sort"
	"sync"

	"github.com/virtualpartitions/vp/internal/model"
)

// Outcome reports the immediate result of an acquire.
type Outcome uint8

const (
	// Granted: the lock is held.
	Granted Outcome = iota
	// Queued: the requester waits; a Grant will be emitted on release.
	Queued
	// Died: wait-die refused the request; the requester must abort.
	Died
)

func (o Outcome) String() string {
	switch o {
	case Granted:
		return "granted"
	case Queued:
		return "queued"
	default:
		return "died"
	}
}

// Grant is a deferred lock grant produced when a release unblocks a
// queued request.
type Grant struct {
	Txn  model.TxnID
	Obj  model.ObjectID
	Mode model.LockMode
}

type waiter struct {
	txn  model.TxnID
	mode model.LockMode
}

type lockState struct {
	holders map[model.TxnID]model.LockMode
	queue   []waiter
}

// objStripe is one shard of the object table.
type objStripe struct {
	mu    sync.Mutex
	table map[model.ObjectID]*lockState
	_     [24]byte // pad toward a cache line; stripes are written hot
}

// txnStripe is one shard of the held reverse index.
type txnStripe struct {
	mu   sync.Mutex
	held map[model.TxnID]model.ObjSet
	_    [24]byte
}

// Manager is one processor's lock table, striped for concurrent access.
type Manager struct {
	mask uint32
	objs []objStripe
	txns []txnStripe
}

// NewManager returns an empty lock table with one stripe pair per core
// group (power of two, scaled from GOMAXPROCS).
func NewManager() *Manager {
	return newManager(model.StripeCount())
}

// newManager builds a table with an explicit stripe count; stripes=1
// degenerates to a single global mutex, which the contended benchmarks
// use as the baseline.
func newManager(stripes int) *Manager {
	m := &Manager{
		mask: uint32(stripes - 1),
		objs: make([]objStripe, stripes),
		txns: make([]txnStripe, stripes),
	}
	for i := range m.objs {
		m.objs[i].table = make(map[model.ObjectID]*lockState)
	}
	for i := range m.txns {
		m.txns[i].held = make(map[model.TxnID]model.ObjSet)
	}
	return m
}

func (m *Manager) objStripe(obj model.ObjectID) *objStripe {
	return &m.objs[model.FNVObj(obj)&m.mask]
}

func (m *Manager) txnStripe(txn model.TxnID) *txnStripe {
	return &m.txns[model.HashTxn(txn)&m.mask]
}

// note records obj in txn's held set. Callers hold the object's stripe:
// the lock order is always objStripe → txnStripe, never the reverse, and
// no two stripes of the same kind are ever held together — which rules
// out lock-order deadlocks while keeping holders and the held index
// atomically consistent per object.
func (m *Manager) note(txn model.TxnID, obj model.ObjectID) {
	ts := m.txnStripe(txn)
	ts.mu.Lock()
	if ts.held[txn] == nil {
		ts.held[txn] = model.NewObjSet()
	}
	ts.held[txn].Add(obj)
	ts.mu.Unlock()
}

func (m *Manager) unnote(txn model.TxnID, obj model.ObjectID) {
	ts := m.txnStripe(txn)
	ts.mu.Lock()
	if s := ts.held[txn]; s != nil {
		s.Remove(obj)
		if s.Len() == 0 {
			delete(ts.held, txn)
		}
	}
	ts.mu.Unlock()
}

// Acquire requests a lock on obj for txn in the given mode.
//
// Re-entrancy: a transaction already holding the object in the same or a
// stronger mode is granted immediately; a shared holder requesting
// exclusive attempts an upgrade, which follows the same wait-die rule
// against the other holders.
func (m *Manager) Acquire(obj model.ObjectID, txn model.TxnID, mode model.LockMode) Outcome {
	return m.acquire(obj, txn, mode, false)
}

// AcquirePatient is Acquire for a transaction that holds no lock
// anywhere: wait-die lets it wait for anybody, older or not, because no
// cycle of waiting transactions can pass through one that nobody can be
// waiting for. It never returns Died.
func (m *Manager) AcquirePatient(obj model.ObjectID, txn model.TxnID, mode model.LockMode) Outcome {
	return m.acquire(obj, txn, mode, true)
}

func (m *Manager) acquire(obj model.ObjectID, txn model.TxnID, mode model.LockMode, patient bool) Outcome {
	s := m.objStripe(obj)
	s.mu.Lock()
	st, ok := s.table[obj]
	if !ok {
		st = &lockState{holders: make(map[model.TxnID]model.LockMode)}
		s.table[obj] = st
	}
	if cur, ok := st.holders[txn]; ok {
		if cur == model.LockExclusive || mode == model.LockShared {
			s.mu.Unlock()
			return Granted // already strong enough
		}
		// Upgrade S → X: conflicts with every *other* holder.
	}
	conflict := false
	for holder, hmode := range st.holders {
		if holder == txn {
			continue
		}
		if hmode.Conflicts(mode) {
			conflict = true
			// Wait-die: if the requester is younger than any conflicting
			// holder, it dies immediately.
			if holder.Less(txn) && !patient {
				s.mu.Unlock()
				return Died
			}
		}
	}
	// Also respect the queue: jumping over a conflicting waiter would
	// starve it, and jumping over an older waiter breaks wait-die's
	// age discipline. Requests queue behind any conflicting waiter.
	for _, w := range st.queue {
		if w.txn != txn && w.mode.Conflicts(mode) {
			conflict = true
			if w.txn.Less(txn) && !patient {
				s.mu.Unlock()
				return Died
			}
		}
	}
	if !conflict {
		st.holders[txn] = mode
		m.note(txn, obj)
		s.mu.Unlock()
		return Granted
	}
	// Older than every conflicting holder/waiter: wait.
	for _, w := range st.queue {
		if w.txn == txn && w.mode == mode {
			s.mu.Unlock()
			return Queued // duplicate request (retransmission)
		}
	}
	st.queue = append(st.queue, waiter{txn: txn, mode: mode})
	s.mu.Unlock()
	return Queued
}

// release frees txn's lock on obj and returns any newly grantable
// waiters. The held index (txn's removal, pumped grantees' additions) is
// updated under the object's stripe so it never disagrees with holders.
func (m *Manager) release(obj model.ObjectID, txn model.TxnID) []Grant {
	s := m.objStripe(obj)
	s.mu.Lock()
	st, ok := s.table[obj]
	if !ok {
		s.mu.Unlock()
		m.unnote(txn, obj)
		return nil
	}
	delete(st.holders, txn)
	m.unnote(txn, obj)
	// Remove txn from the queue too (it may be waiting elsewhere when a
	// global abort releases everything).
	q := st.queue[:0]
	for _, w := range st.queue {
		if w.txn != txn {
			q = append(q, w)
		}
	}
	st.queue = q
	grants := pump(obj, st)
	for _, g := range grants {
		m.note(g.Txn, g.Obj)
	}
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(s.table, obj)
	}
	s.mu.Unlock()
	return grants
}

// pump grants queued requests that have become compatible, in FIFO
// order, stopping at the first one that still conflicts. Caller holds
// the object's stripe.
func pump(obj model.ObjectID, st *lockState) []Grant {
	var grants []Grant
	for len(st.queue) > 0 {
		w := st.queue[0]
		compatible := true
		for holder, hmode := range st.holders {
			if holder != w.txn && hmode.Conflicts(w.mode) {
				compatible = false
				break
			}
		}
		if !compatible {
			break
		}
		st.queue = st.queue[1:]
		if cur, ok := st.holders[w.txn]; !ok || cur == model.LockShared {
			st.holders[w.txn] = w.mode
		}
		grants = append(grants, Grant{Txn: w.txn, Obj: obj, Mode: w.mode})
	}
	return grants
}

// Release frees one lock (or queued request) and returns unblocked
// grants.
func (m *Manager) Release(obj model.ObjectID, txn model.TxnID) []Grant {
	return m.release(obj, txn)
}

// ReleaseAll frees every lock and queued request of txn and returns the
// unblocked grants, in deterministic (object) order.
func (m *Manager) ReleaseAll(txn model.TxnID) []Grant {
	objs := model.NewObjSet()
	ts := m.txnStripe(txn)
	ts.mu.Lock()
	if s := ts.held[txn]; s != nil {
		for o := range s {
			objs.Add(o)
		}
	}
	ts.mu.Unlock()
	// The txn may also be queued on objects it does not hold yet — and a
	// concurrent pump may promote such a queued request to a grant while
	// this scan runs, so holders are checked as well as queues.
	for i := range m.objs {
		s := &m.objs[i]
		s.mu.Lock()
		for o, st := range s.table {
			if _, ok := st.holders[txn]; ok {
				objs.Add(o)
			}
			for _, w := range st.queue {
				if w.txn == txn {
					objs.Add(o)
				}
			}
		}
		s.mu.Unlock()
	}
	var grants []Grant
	for _, o := range objs.Sorted() {
		grants = append(grants, m.release(o, txn)...)
	}
	return grants
}

// Holds reports whether txn currently holds obj in at least the given
// mode.
func (m *Manager) Holds(obj model.ObjectID, txn model.TxnID, mode model.LockMode) bool {
	s := m.objStripe(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.table[obj]
	if !ok {
		return false
	}
	cur, ok := st.holders[txn]
	return ok && (cur == model.LockExclusive || mode == model.LockShared)
}

// HoldersOf returns the transactions holding obj, sorted by age.
func (m *Manager) HoldersOf(obj model.ObjectID) []model.TxnID {
	s := m.objStripe(obj)
	s.mu.Lock()
	st, ok := s.table[obj]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	out := make([]model.TxnID, 0, len(st.holders))
	for t := range st.holders {
		out = append(out, t)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Txns returns every transaction holding or waiting for any lock, sorted
// by age. Nodes use it to abort all local transactions when departing a
// virtual partition (rule R4).
func (m *Manager) Txns() []model.TxnID {
	set := make(map[model.TxnID]struct{})
	for i := range m.txns {
		ts := &m.txns[i]
		ts.mu.Lock()
		for t := range ts.held {
			set[t] = struct{}{}
		}
		ts.mu.Unlock()
	}
	for i := range m.objs {
		s := &m.objs[i]
		s.mu.Lock()
		for _, st := range s.table {
			for _, w := range st.queue {
				set[w.txn] = struct{}{}
			}
		}
		s.mu.Unlock()
	}
	out := make([]model.TxnID, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// QueueLen returns the number of waiters on obj.
func (m *Manager) QueueLen(obj model.ObjectID) int {
	s := m.objStripe(obj)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.table[obj]; ok {
		return len(st.queue)
	}
	return 0
}

// String renders the table for debugging.
func (m *Manager) String() string {
	objs := model.NewObjSet()
	states := make(map[model.ObjectID]string)
	for i := range m.objs {
		s := &m.objs[i]
		s.mu.Lock()
		for o, st := range s.table {
			objs.Add(o)
			states[o] = fmt.Sprintf("%s: holders=%v queue=%v\n", o, st.holders, st.queue)
		}
		s.mu.Unlock()
	}
	out := ""
	for _, o := range objs.Sorted() {
		out += states[o]
	}
	return out
}
