// Package locks implements a per-processor strict two-phase-locking
// table over local physical copies, with wait-die deadlock avoidance.
//
// The paper assumes (A1) a concurrency control protocol that makes every
// execution conflict-preserving serializable; distributed strict 2PL on
// copies is the canonical such protocol ([EGLT], the reference the paper
// itself cites). Wait-die keeps the system deadlock-free without any
// distributed cycle detection: a requester older than every conflicting
// holder waits, a younger requester dies (aborts).
package locks

import (
	"fmt"
	"slices"
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

// Manager is one processor's lock table: one map behind one mutex. The
// node calls in under its handler mutex, but debug readers may call
// from outside it, so every exported method locks. Each method is atomic.
type Manager struct {
	mu    sync.Mutex
	table map[model.ObjectID]*lockState
	// txns indexes, per transaction, the objects it holds or waits for,
	// sorted: what ReleaseAll frees and Txns lists.
	txns map[model.TxnID][]model.ObjectID
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		table: make(map[model.ObjectID]*lockState),
		txns:  make(map[model.TxnID][]model.ObjectID),
	}
}

// note records that txn holds or waits for obj.
func (m *Manager) note(txn model.TxnID, obj model.ObjectID) {
	objs := m.txns[txn]
	if i, ok := slices.BinarySearch(objs, obj); !ok {
		m.txns[txn] = slices.Insert(objs, i, obj)
	}
}

func (m *Manager) unnote(txn model.TxnID, obj model.ObjectID) {
	objs := m.txns[txn]
	if i, ok := slices.BinarySearch(objs, obj); ok {
		if len(objs) == 1 {
			delete(m.txns, txn)
		} else {
			m.txns[txn] = slices.Delete(objs, i, i+1)
		}
	}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.table[obj]
	if !ok {
		st = &lockState{holders: make(map[model.TxnID]model.LockMode)}
		m.table[obj] = st
	}
	if cur, ok := st.holders[txn]; ok {
		if cur == model.LockExclusive || mode == model.LockShared {
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
				return Died
			}
		}
	}
	if !conflict {
		st.holders[txn] = mode
		m.note(txn, obj)
		return Granted
	}
	// Older than every conflicting holder/waiter: wait.
	for _, w := range st.queue {
		if w.txn == txn && w.mode == mode {
			return Queued // duplicate request (retransmission)
		}
	}
	st.queue = append(st.queue, waiter{txn: txn, mode: mode})
	m.note(txn, obj)
	return Queued
}

// release frees txn's lock on obj and returns any newly grantable
// waiters. Grantees were waiting on obj, so they are indexed already.
// Caller holds mu.
func (m *Manager) release(obj model.ObjectID, txn model.TxnID) []Grant {
	m.unnote(txn, obj)
	st, ok := m.table[obj]
	if !ok {
		return nil
	}
	delete(st.holders, txn)
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
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(m.table, obj)
	}
	return grants
}

// pump grants queued requests that have become compatible, in FIFO
// order, stopping at the first one that still conflicts.
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.release(obj, txn)
}

// ReleaseAll frees every lock and queued request of txn and returns the
// unblocked grants, in deterministic (object) order.
func (m *Manager) ReleaseAll(txn model.TxnID) []Grant {
	m.mu.Lock()
	defer m.mu.Unlock()
	objs := m.txns[txn]
	delete(m.txns, txn)
	var grants []Grant
	for _, o := range objs {
		grants = append(grants, m.release(o, txn)...)
	}
	return grants
}

// Holds reports whether txn currently holds obj in at least the given
// mode.
func (m *Manager) Holds(obj model.ObjectID, txn model.TxnID, mode model.LockMode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.table[obj]
	if !ok {
		return false
	}
	cur, ok := st.holders[txn]
	return ok && (cur == model.LockExclusive || mode == model.LockShared)
}

// HoldersOf returns the transactions holding obj, sorted by age.
func (m *Manager) HoldersOf(obj model.ObjectID) []model.TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.table[obj]
	if !ok {
		return nil
	}
	return model.SortedTxns(st.holders)
}

// Txns returns every transaction holding or waiting for any lock, sorted
// by age. Nodes use it to abort all local transactions when departing a
// virtual partition (rule R4).
func (m *Manager) Txns() []model.TxnID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return model.SortedTxns(m.txns)
}

// QueueLen returns the number of waiters on obj.
func (m *Manager) QueueLen(obj model.ObjectID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.table[obj]; ok {
		return len(st.queue)
	}
	return 0
}

// String renders the table for debugging.
func (m *Manager) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := ""
	for _, o := range model.SortedKeys(m.table) {
		st := m.table[o]
		out += fmt.Sprintf("%s: holders=%v queue=%v\n", o, st.holders, st.queue)
	}
	return out
}
