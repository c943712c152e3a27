package locks

import (
	"math/rand"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

func tx(start int64) model.TxnID { return model.TxnID{Start: start, P: 1, Seq: uint64(start)} }

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if m.Acquire("x", tx(1), model.LockShared) != Granted {
		t.Fatal("first S should be granted")
	}
	if m.Acquire("x", tx(2), model.LockShared) != Granted {
		t.Fatal("second S should be granted")
	}
	if len(m.HoldersOf("x")) != 2 {
		t.Fatal("two holders expected")
	}
}

func TestExclusiveConflict(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(2), model.LockExclusive)
	// Older requester (1 < 2) waits.
	if got := m.Acquire("x", tx(1), model.LockExclusive); got != Queued {
		t.Fatalf("older requester: %v, want queued", got)
	}
	// Younger requester (3 > 2) dies.
	if got := m.Acquire("x", tx(3), model.LockExclusive); got != Died {
		t.Fatalf("younger requester: %v, want died", got)
	}
	// Unless it holds nothing anywhere and says so: then it waits its
	// turn, behind the older waiter.
	if got := m.AcquirePatient("x", tx(3), model.LockExclusive); got != Queued {
		t.Fatalf("younger patient requester: %v, want queued", got)
	}
	if grants := m.Release("x", tx(2)); len(grants) != 1 || grants[0].Txn != tx(1) {
		t.Fatalf("grants = %v, want the older waiter first", grants)
	}
	if grants := m.Release("x", tx(1)); len(grants) != 1 || grants[0].Txn != tx(3) {
		t.Fatalf("grants = %v, want the patient waiter", grants)
	}
}

func TestReleaseGrantsWaiter(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(2), model.LockExclusive)
	m.Acquire("x", tx(1), model.LockExclusive) // queued
	grants := m.Release("x", tx(2))
	if len(grants) != 1 || grants[0].Txn != tx(1) || grants[0].Mode != model.LockExclusive {
		t.Fatalf("grants = %v", grants)
	}
	if !m.Holds("x", tx(1), model.LockExclusive) {
		t.Fatal("waiter should now hold the lock")
	}
}

func TestFIFOPumpStopsAtConflict(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(5), model.LockExclusive)
	// Two waiters queue in age order (each older than everything it
	// conflicts with, per wait-die): X from t2, then S from t1.
	if m.Acquire("x", tx(2), model.LockExclusive) != Queued {
		t.Fatal("t2 should queue")
	}
	if m.Acquire("x", tx(1), model.LockShared) != Queued {
		t.Fatal("t1 should queue")
	}
	grants := m.Release("x", tx(5))
	// Only the X at the head is granted; the S behind it still conflicts.
	if len(grants) != 1 || grants[0].Txn != tx(2) {
		t.Fatalf("grants = %v", grants)
	}
	if m.QueueLen("x") != 1 {
		t.Fatal("S waiter should remain queued")
	}
	grants = m.Release("x", tx(2))
	if len(grants) != 1 || grants[0].Txn != tx(1) {
		t.Fatalf("second grants = %v", grants)
	}
}

func TestQueueJumpDies(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(3), model.LockShared)
	m.Acquire("x", tx(2), model.LockExclusive) // older: queued behind S holder
	// A younger S request must not jump over the queued older X.
	if got := m.Acquire("x", tx(4), model.LockShared); got != Died {
		t.Fatalf("younger S over queued X: %v, want died", got)
	}
	// An even older S request queues (waits behind the X fairly).
	if got := m.Acquire("x", tx(1), model.LockShared); got != Queued {
		t.Fatalf("older S: %v, want queued", got)
	}
}

func TestReentrancyAndUpgrade(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(1), model.LockShared)
	if m.Acquire("x", tx(1), model.LockShared) != Granted {
		t.Fatal("re-acquiring S should be granted")
	}
	if m.Acquire("x", tx(1), model.LockExclusive) != Granted {
		t.Fatal("sole S holder should upgrade to X")
	}
	if m.Acquire("x", tx(1), model.LockShared) != Granted {
		t.Fatal("X holder asking S should be granted")
	}
	if !m.Holds("x", tx(1), model.LockExclusive) {
		t.Fatal("should hold X")
	}
	// Upgrade with another S holder: requester older -> queued.
	m2 := NewManager()
	m2.Acquire("x", tx(1), model.LockShared)
	m2.Acquire("x", tx(2), model.LockShared)
	if got := m2.Acquire("x", tx(1), model.LockExclusive); got != Queued {
		t.Fatalf("upgrade with other holder: %v, want queued", got)
	}
	grants := m2.Release("x", tx(2))
	if len(grants) != 1 || grants[0].Mode != model.LockExclusive || grants[0].Txn != tx(1) {
		t.Fatalf("upgrade grant = %v", grants)
	}
	if !m2.Holds("x", tx(1), model.LockExclusive) {
		t.Fatal("upgrade not applied")
	}
}

func TestReleaseAll(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(2), model.LockExclusive)
	m.Acquire("y", tx(2), model.LockShared)
	m.Acquire("x", tx(1), model.LockExclusive) // queued on x
	m.Acquire("z", tx(1), model.LockShared)
	grants := m.ReleaseAll(tx(2))
	if len(grants) != 1 || grants[0].Txn != tx(1) || grants[0].Obj != "x" {
		t.Fatalf("grants = %v", grants)
	}
	if len(m.Txns()) != 1 {
		t.Fatalf("Txns = %v", m.Txns())
	}
	// Releasing a queued-only txn removes it from queues.
	m.Acquire("x", tx(3), model.LockExclusive) // younger than holder 1? 3>1: dies
	m.Acquire("x", tx(0), model.LockExclusive) // older: queued
	m.ReleaseAll(tx(0))
	if m.QueueLen("x") != 0 {
		t.Fatal("queued request not removed")
	}
}

func TestHoldsAndTxns(t *testing.T) {
	m := NewManager()
	if m.Holds("x", tx(1), model.LockShared) {
		t.Fatal("empty table holds nothing")
	}
	m.Acquire("x", tx(1), model.LockShared)
	if !m.Holds("x", tx(1), model.LockShared) || m.Holds("x", tx(1), model.LockExclusive) {
		t.Fatal("Holds mode check wrong")
	}
	m.Acquire("y", tx(2), model.LockExclusive)
	txns := m.Txns()
	if len(txns) != 2 || !txns[0].Less(txns[1]) {
		t.Fatalf("Txns = %v", txns)
	}
}

func TestDuplicateQueuedRequest(t *testing.T) {
	m := NewManager()
	m.Acquire("x", tx(2), model.LockExclusive)
	if m.Acquire("x", tx(1), model.LockExclusive) != Queued {
		t.Fatal("first should queue")
	}
	if m.Acquire("x", tx(1), model.LockExclusive) != Queued {
		t.Fatal("duplicate should still report queued")
	}
	if m.QueueLen("x") != 1 {
		t.Fatalf("duplicate enqueued twice: %d", m.QueueLen("x"))
	}
}

// Property-style stress: random acquire/release traffic never deadlocks
// (every queued txn eventually gets granted or released) and never
// grants conflicting locks simultaneously.
func TestRandomTrafficInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewManager()
	objs := []model.ObjectID{"a", "b", "c"}
	live := map[model.TxnID]bool{}
	nextStart := int64(1)
	checkNoConflicts := func() {
		for _, o := range objs {
			holders := m.HoldersOf(o)
			x := 0
			for _, h := range holders {
				if m.Holds(o, h, model.LockExclusive) {
					x++
				}
			}
			if x > 1 || (x == 1 && len(holders) > 1) {
				t.Fatalf("conflicting holders on %s: %v\n%s", o, holders, m.String())
			}
		}
	}
	for i := 0; i < 5000; i++ {
		if len(live) < 5 && rng.Intn(2) == 0 {
			txn := model.TxnID{Start: nextStart, P: 1, Seq: uint64(nextStart)}
			nextStart++
			live[txn] = true
			o := objs[rng.Intn(len(objs))]
			mode := model.LockMode(rng.Intn(2))
			if m.Acquire(o, txn, mode) == Died {
				m.ReleaseAll(txn)
				delete(live, txn)
			}
		} else if len(live) > 0 {
			// Release a random live txn entirely.
			var victim model.TxnID
			k := rng.Intn(len(live))
			for txn := range live {
				if k == 0 {
					victim = txn
					break
				}
				k--
			}
			m.ReleaseAll(victim)
			delete(live, victim)
		}
		checkNoConflicts()
	}
	// Drain: releasing everything leaves an empty table.
	for txn := range live {
		m.ReleaseAll(txn)
	}
	if len(m.Txns()) != 0 {
		t.Fatalf("leftover txns: %v", m.Txns())
	}
}
