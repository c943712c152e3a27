package store

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

func newTestStore(logCap int) *Store {
	cat := model.NewCatalog(
		model.Placement{Object: "x", Holders: model.NewProcSet(1, 2)},
		model.Placement{Object: "y", Holders: model.NewProcSet(1)},
		model.Placement{Object: "z", Holders: model.NewProcSet(2)},
	)
	return New(1, cat, 0, logCap)
}

// seedObjects adds n fresh copies named after prefix to s.
func seedObjects(s *Store, prefix string, n int) []model.ObjectID {
	objs := make([]model.ObjectID, n)
	for i := range objs {
		o := model.ObjectID(fmt.Sprintf("%s-obj-%02d", prefix, i))
		objs[i] = o
		s.objects[o] = &objectState{copyVal: model.Copy{Val: s.initVal}}
	}
	return objs
}

func ver(n uint64, ctr uint64) model.Version {
	return model.Version{Date: model.VPID{N: n, P: 1}, Ctr: ctr}
}

func TestStoreHoldsOnlyLocalCopies(t *testing.T) {
	s := newTestStore(8)
	if !s.Has("x") || !s.Has("y") || s.Has("z") {
		t.Fatal("wrong local set")
	}
	objs := s.Objects()
	if len(objs) != 2 || objs[0] != "x" || objs[1] != "y" {
		t.Fatalf("Objects = %v", objs)
	}
	if s.Owner() != 1 {
		t.Fatal("owner wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get of non-local copy should panic")
		}
	}()
	s.Get("z")
}

func TestApplyAndGet(t *testing.T) {
	s := newTestStore(8)
	c := s.Get("x")
	if c.Val != 0 || !c.Ver.Date.IsZero() {
		t.Fatalf("initial copy = %+v", c)
	}
	s.Apply("x", 42, ver(1, 1))
	c = s.Get("x")
	if c.Val != 42 || c.Ver.Ctr != 1 {
		t.Fatalf("after apply = %+v", c)
	}
}

func TestRecoveryLocks(t *testing.T) {
	s := newTestStore(8)
	s.LockForRecovery([]model.ObjectID{"x", "y", "z"}) // z not local: ignored
	if !s.RecoveryLocked("x") || !s.RecoveryLocked("y") || s.RecoveryLocked("z") {
		t.Fatal("lock set wrong")
	}
	got := s.LockedObjects()
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("LockedObjects = %v", got)
	}
	s.UnlockRecovered("x")
	if s.RecoveryLocked("x") || !s.RecoveryLocked("y") {
		t.Fatal("unlock wrong")
	}
	s.UnlockAllRecovery()
	if len(s.LockedObjects()) != 0 {
		t.Fatal("UnlockAllRecovery incomplete")
	}
}

func TestStagedCommit(t *testing.T) {
	s := newTestStore(8)
	txn := model.TxnID{Start: 1, P: 1, Seq: 1}
	s.Stage("x", txn, 7, ver(1, 1))
	if by, ok := s.StagedBy("x"); !ok || by != txn {
		t.Fatal("StagedBy wrong")
	}
	if s.Get("x").Val != 0 {
		t.Fatal("staging must not modify the committed copy")
	}
	if !s.CommitStaged("x", txn) {
		t.Fatal("CommitStaged failed")
	}
	if s.Get("x").Val != 7 {
		t.Fatal("commit did not apply")
	}
	if _, ok := s.StagedBy("x"); ok {
		t.Fatal("staged write should be gone after commit")
	}
	// Duplicate decide: no-op.
	if s.CommitStaged("x", txn) {
		t.Fatal("duplicate commit should be a no-op")
	}
	// A decision that arrives after recovery has taken the copy past the
	// staged version (the processor was killed prepared and rule R5
	// refreshed it on rejoining) drops the stage and leaves the copy.
	late := model.TxnID{Start: 2, P: 1, Seq: 2}
	s.Stage("x", late, 8, ver(1, 2))
	if v, ok := s.StagedVer("x"); !ok || v != ver(1, 2) {
		t.Fatalf("StagedVer = %v, %v", v, ok)
	}
	s.Apply("x", 9, ver(2, 3))
	if s.CommitStaged("x", late) {
		t.Fatal("a late commit changed a copy that had moved past it")
	}
	if got := s.Get("x"); got.Val != 9 || got.Ver != ver(2, 3) {
		t.Fatalf("copy went back to %+v", got)
	}
	if _, ok := s.StagedBy("x"); ok {
		t.Fatal("the late stage should be gone")
	}
}

func TestStagedAbort(t *testing.T) {
	s := newTestStore(8)
	t1 := model.TxnID{Start: 1, P: 1, Seq: 1}
	t2 := model.TxnID{Start: 2, P: 1, Seq: 2}
	s.Stage("x", t1, 7, ver(1, 1))
	s.DropStaged("x", t2) // wrong txn: no-op
	if _, ok := s.StagedBy("x"); !ok {
		t.Fatal("DropStaged removed another txn's write")
	}
	s.DropStaged("x", t1)
	if _, ok := s.StagedBy("x"); ok {
		t.Fatal("DropStaged failed")
	}
	s.Stage("x", t1, 8, ver(1, 2))
	s.Stage("y", t1, 9, ver(1, 2))
	s.DropAllStagedBy(t1)
	if _, ok := s.StagedBy("x"); ok {
		t.Fatal("DropAllStagedBy incomplete")
	}
	if s.Get("x").Val != 0 || s.Get("y").Val != 0 {
		t.Fatal("aborted writes leaked")
	}
}

// TestAbortDropsExactlyItsStages: the per-transaction index must name
// the aborted transaction's two staged objects and nobody else's, through
// re-staging, a commit, a restore and a stage taken over by another
// transaction.
func TestAbortDropsExactlyItsStages(t *testing.T) {
	s := newTestStore(8)
	objs := seedObjects(s, "idx", 4)
	t1 := model.TxnID{Start: 1, P: 1, Seq: 1}
	t2 := model.TxnID{Start: 2, P: 1, Seq: 2}
	s.Stage(objs[0], t1, 7, ver(1, 1))
	s.Stage(objs[0], t1, 8, ver(1, 1)) // re-stage: still one index entry
	s.StageDelta(objs[1], t1, 1, ver(1, 1))
	s.Stage(objs[2], t2, 9, ver(1, 1))
	s.Restore(nil, map[model.TxnID]map[model.ObjectID]durable.StagedWrite{
		t2: {objs[3]: {Val: 5, Ver: ver(1, 1)}},
	})
	if n := len(s.stagedObjs[t1]); n != 2 {
		t.Fatalf("index holds %d objects for the two-object transaction", n)
	}
	s.DropAllStagedBy(t1)
	for _, o := range objs[:2] {
		if _, ok := s.StagedBy(o); ok {
			t.Fatalf("abort left %s staged", o)
		}
	}
	for _, o := range objs[2:] {
		if by, ok := s.StagedBy(o); !ok || by != t2 {
			t.Fatalf("abort of t1 touched t2's stage on %s", o)
		}
	}
	// A dropped delta stage must not turn the object's next plain stage
	// into an increment.
	s.Stage(objs[1], t2, 40, ver(1, 2))
	if !s.CommitStaged(objs[1], t2) || s.Get(objs[1]).Val != 40 {
		t.Fatalf("plain stage after a dropped delta stage committed %d, want 40", s.Get(objs[1]).Val)
	}
	s.Stage(objs[2], t1, 1, ver(1, 3)) // takes t2's stage over
	s.DropAllStagedBy(t2)
	if by, ok := s.StagedBy(objs[2]); !ok || by != t1 {
		t.Fatal("dropping t2 removed the stage t1 had taken over")
	}
	s.CommitStaged(objs[2], t1)
	s.DropAllStagedBy(t2)
	if len(s.stagedObjs) != 0 {
		t.Fatalf("index not empty once nothing is staged: %v", s.stagedObjs)
	}
}

// TestReadOnlyReleaseIsNotASweep: releasing a transaction that staged
// nothing — every read-only one — must not cost a pass over the store.
// 10 000 releases over 100 000 objects took about 20 s as a sweep; the
// budget is a two-hundredth of that and a hundred times the real cost.
func TestReadOnlyReleaseIsNotASweep(t *testing.T) {
	s := newTestStore(0)
	seedObjects(s, "big", 100_000)
	start := time.Now()
	for i := 0; i < 10_000; i++ {
		s.DropAllStagedBy(model.TxnID{Start: 1, P: 2, Seq: uint64(i)})
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("10000 read-only releases over 100000 objects took %v, budget 100ms", d)
	}
}

func TestMissingMarks(t *testing.T) {
	s := newTestStore(8)
	if s.HasMissing("x") {
		t.Fatal("fresh copy should have no marks")
	}
	s.MarkMissing("x", []model.ProcID{2, 3})
	if !s.HasMissing("x") || s.HasMissing("y") {
		t.Fatal("marks wrong")
	}
	s.ClearMissing("x")
	if s.HasMissing("x") {
		t.Fatal("ClearMissing failed")
	}
	s.ClearMissing("z") // non-local: no-op, no panic
}

// Every participant clears the marks of every write that reached all
// copies, marks or not: with none to clear that must allocate nothing.
func TestClearMissingAllocatesNothing(t *testing.T) {
	s := newTestStore(8)
	s.MarkMissing("x", []model.ProcID{2})
	s.ClearMissing("x")
	if n := testing.AllocsPerRun(100, func() { s.ClearMissing("x") }); n != 0 {
		t.Fatalf("ClearMissing allocated %v times per call, want 0", n)
	}
	if s.HasMissing("x") {
		t.Fatal("marks survived ClearMissing")
	}
}

// The locked set is counted, not swept, when it is empty; the count must
// follow every way in and out of it.
func TestUnlockAllRecoveryAfterPartialUnlock(t *testing.T) {
	s := newTestStore(8)
	s.LockForRecovery([]model.ObjectID{"x", "y"})
	s.LockForRecovery([]model.ObjectID{"x"})
	s.UnlockRecovered("x")
	if s.RecoveryLocked("x") || !s.RecoveryLocked("y") {
		t.Fatal("UnlockRecovered released the wrong copies")
	}
	s.UnlockAllRecovery()
	if s.RecoveryLocked("y") {
		t.Fatal("UnlockAllRecovery left y locked")
	}
	s.LockForRecovery([]model.ObjectID{"y"})
	s.UnlockAllRecovery()
	if got := s.LockedObjects(); len(got) != 0 {
		t.Fatalf("locked after UnlockAllRecovery: %v", got)
	}
}

func TestLogSinceComplete(t *testing.T) {
	s := newTestStore(10)
	for i := uint64(1); i <= 5; i++ {
		s.Apply("x", model.Value(i), ver(1, i))
	}
	entries, complete := s.LogSince("x", ver(1, 2))
	if !complete || len(entries) != 3 {
		t.Fatalf("entries=%v complete=%v", entries, complete)
	}
	if entries[0].Val != 3 || entries[2].Val != 5 {
		t.Fatalf("wrong tail: %v", entries)
	}
	// Reader already current: complete, empty.
	entries, complete = s.LogSince("x", ver(1, 5))
	if !complete || len(entries) != 0 {
		t.Fatal("up-to-date reader should get empty complete tail")
	}
	// Reader beyond us (we are stale): also complete-empty.
	entries, complete = s.LogSince("x", ver(2, 1))
	if !complete || len(entries) != 0 {
		t.Fatal("newer reader should get empty complete tail")
	}
}

func TestLogSinceTruncated(t *testing.T) {
	s := newTestStore(3)
	for i := uint64(1); i <= 10; i++ {
		s.Apply("x", model.Value(i), ver(1, i))
	}
	if s.LogLen("x") != 3 {
		t.Fatalf("LogLen = %d", s.LogLen("x"))
	}
	// Writes 1..7 were evicted: a reader at version 2 cannot be served.
	if _, complete := s.LogSince("x", ver(1, 2)); complete {
		t.Fatal("truncated log should report incomplete")
	}
	// A reader at version 7 can: entries 8,9,10 retained.
	entries, complete := s.LogSince("x", ver(1, 7))
	if !complete || len(entries) != 3 {
		t.Fatalf("entries=%v complete=%v", entries, complete)
	}
}

func TestLogDisabled(t *testing.T) {
	s := newTestStore(0)
	s.Apply("x", 1, ver(1, 1))
	if _, complete := s.LogSince("x", model.Version{}); complete {
		t.Fatal("disabled log must not claim completeness for stale readers")
	}
	if s.LogLen("x") != 0 {
		t.Fatal("disabled log should stay empty")
	}

	// Over a file journal, a store without an in-memory log serves the
	// §6 catch-up from the journal's retained segments, complete.
	s = newTestStore(0)
	_, j, err := durable.OpenOptions("journal", durable.Options{FS: durable.Memory()})
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j)
	s.Apply("x", 1, ver(1, 1))
	s.Apply("x", 2, ver(1, 2))
	got, complete := s.LogSince("x", model.Version{})
	want := []model.Copy{{Val: 1, Ver: ver(1, 1)}, {Val: 2, Ver: ver(1, 2)}}
	if !complete || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("LogSince over the journal = %v, %v; want %v, complete", got, complete, want)
	}
}

func TestApplyLog(t *testing.T) {
	src := newTestStore(10)
	dst := newTestStore(10)
	for i := uint64(1); i <= 5; i++ {
		src.Apply("x", model.Value(i*10), ver(1, i))
	}
	dst.Apply("x", 10, ver(1, 1))
	entries, complete := src.LogSince("x", dst.Get("x").Ver)
	if !complete {
		t.Fatal("should be complete")
	}
	if n := dst.ApplyLog("x", entries); n != 4 {
		t.Fatalf("applied %d", n)
	}
	if got := dst.Get("x"); got.Val != 50 || got.Ver.Ctr != 5 {
		t.Fatalf("dst = %+v", got)
	}
	// Replaying the same entries is idempotent.
	if n := dst.ApplyLog("x", entries); n != 0 {
		t.Fatalf("replay applied %d", n)
	}
}

// Property: log-based catch-up yields exactly the same copy as reading
// the full value, for any sequence of writes and any stale point.
func TestCatchupEquivalenceProperty(t *testing.T) {
	f := func(writes []uint8, staleAt uint8) bool {
		if len(writes) == 0 {
			return true
		}
		src := newTestStore(1000)
		dst := newTestStore(1000)
		stale := int(staleAt) % len(writes)
		for i, w := range writes {
			v := ver(1, uint64(i+1))
			src.Apply("x", model.Value(w), v)
			if i <= stale {
				dst.Apply("x", model.Value(w), v)
			}
		}
		entries, complete := src.LogSince("x", dst.Get("x").Ver)
		if !complete {
			return false
		}
		dst.ApplyLog("x", entries)
		return dst.Get("x") == src.Get("x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogBaseMonotone(t *testing.T) {
	// Eviction across epochs: logBase must track the newest evicted
	// entry even when Date changes.
	s := newTestStore(2)
	s.Apply("x", 1, ver(1, 1))
	s.Apply("x", 2, ver(1, 2))
	s.Apply("x", 3, ver(2, 3)) // evicts (1,1)
	if _, complete := s.LogSince("x", model.Version{}); complete {
		t.Fatal("evicted history should make zero-version reader incomplete")
	}
	entries, complete := s.LogSince("x", ver(1, 1))
	if !complete || len(entries) != 2 {
		t.Fatalf("entries=%v complete=%v", entries, complete)
	}
}

// TestStoreConcurrent drives the store from many goroutines over
// a shared object universe — commits, staged writes, recovery locks, log
// reads — and checks per-object monotonicity at the end. Run under -race
// this is the synchronization proof.
func TestStoreConcurrent(t *testing.T) {
	s := New(1, model.NewCatalog(), 0, 8)
	objs := seedObjects(s, "shared", 32)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := model.TxnID{Start: int64(w + 1), P: model.ProcID(w + 1), Seq: 1}
			for i := 0; i < 2000; i++ {
				o := objs[(i*7+w*13)%len(objs)]
				ver := model.Version{Date: model.VPID{N: uint64(w + 1), P: model.ProcID(w + 1)},
					Ctr: uint64(i + 1), Writer: txn}
				switch i % 5 {
				case 0:
					s.Apply(o, model.Value(i), ver)
				case 1:
					s.Stage(o, txn, model.Value(i), ver)
					s.CommitStaged(o, txn)
				case 2:
					s.Stage(o, txn, model.Value(i), ver)
					s.DropStaged(o, txn)
				case 3:
					s.Get(o)
					s.LogSince(o, model.Version{})
					s.HasMissing(o)
				case 4:
					s.LockForRecovery([]model.ObjectID{o})
					s.RecoveryLocked(o)
					s.UnlockRecovered(o)
				}
			}
			s.DropAllStagedBy(txn)
		}(w)
	}
	wg.Wait()
	for _, o := range objs {
		if _, ok := s.StagedBy(o); ok {
			t.Fatalf("%s still has a staged write after drain", o)
		}
		if n := s.LogLen(o); n > 8 {
			t.Fatalf("%s log exceeded cap: %d", o, n)
		}
	}
	if got := len(s.Objects()); got != len(objs) {
		t.Fatalf("Objects() = %d entries, want %d", got, len(objs))
	}
}
