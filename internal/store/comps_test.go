package store

import (
	"testing"
	"testing/quick"

	"github.com/virtualpartitions/vp/internal/durable"
	"github.com/virtualpartitions/vp/internal/model"
)

// Tests for the mergeable-counter components and durability plumbing.

func TestApplyDeltaAccumulates(t *testing.T) {
	s := newTestStore(8)
	s.ApplyDelta("x", 1, 5, ver(1, 1))
	s.ApplyDelta("x", 2, 3, ver(1, 2))
	s.ApplyDelta("x", 1, -2, ver(1, 3))
	if got := s.Get("x").Val; got != 6 {
		t.Fatalf("value = %d, want 6", got)
	}
	comps := s.Comps("x")
	if comps[1].Total != 3 || comps[2].Total != 3 {
		t.Fatalf("comps = %+v", comps)
	}
	// Duplicate / stale applies (retransmitted decides) are idempotent.
	s.ApplyDelta("x", 1, -2, ver(1, 3))
	s.ApplyDelta("x", 1, 100, ver(1, 1))
	if got := s.Get("x").Val; got != 6 {
		t.Fatalf("value after duplicates = %d, want 6", got)
	}
}

func TestApplyDeltaRespectsInitValue(t *testing.T) {
	cat := model.NewCatalog(model.Placement{Object: "x", Holders: model.NewProcSet(1)})
	s := New(1, cat, 100, 0)
	s.ApplyDelta("x", 1, 7, ver(1, 1))
	if got := s.Get("x").Val; got != 107 {
		t.Fatalf("value = %d, want 107", got)
	}
}

func TestMergeCompsLatestWins(t *testing.T) {
	a := newTestStore(8)
	b := newTestStore(8)
	// Writer 1 progresses further on copy a; writer 2 on copy b.
	a.ApplyDelta("x", 1, 1, ver(1, 1))
	a.ApplyDelta("x", 1, 1, ver(1, 2))
	a.ApplyDelta("x", 2, 1, ver(1, 3))
	b.ApplyDelta("x", 1, 1, ver(1, 1))
	b.ApplyDelta("x", 2, 1, ver(1, 3))
	b.ApplyDelta("x", 2, 1, ver(2, 1))
	stamp := model.Version{Date: model.VPID{N: 3, P: 1}, Ctr: 9}
	if !a.MergeComps("x", b.Comps("x"), stamp) {
		t.Fatal("merge should change a")
	}
	if !b.MergeComps("x", a.Comps("x"), stamp) {
		t.Fatal("merge should change b")
	}
	// Both converge to writer1=2, writer2=2 → 4.
	if a.Get("x").Val != 4 || b.Get("x").Val != 4 {
		t.Fatalf("a=%d b=%d, want 4", a.Get("x").Val, b.Get("x").Val)
	}
	// Idempotent re-merge.
	if a.MergeComps("x", b.Comps("x"), stamp) {
		t.Fatal("re-merge should be a no-op")
	}
}

// Property: merging any two component maps is commutative and never
// loses a writer's most advanced total.
func TestMergeCompsCommutativeProperty(t *testing.T) {
	build := func(deltas []int8) map[model.ProcID]Comp {
		s := newTestStore(0)
		for i, d := range deltas {
			writer := model.ProcID(i%3 + 1)
			s.ApplyDelta("x", writer, model.Value(d), ver(1, uint64(i+1)))
		}
		return s.Comps("x")
	}
	f := func(d1, d2 []int8) bool {
		// Two stores: first shares a prefix (simulating a common
		// partition) then diverges.
		s1 := newTestStore(0)
		s2 := newTestStore(0)
		ctr := uint64(0)
		for i, d := range d1 {
			ctr++
			writer := model.ProcID(i%2 + 1) // writers 1,2 on branch 1
			s1.ApplyDelta("x", writer, model.Value(d), ver(1, ctr))
		}
		for i, d := range d2 {
			ctr++
			writer := model.ProcID(3) // writer 3 on branch 2
			_ = i
			s2.ApplyDelta("x", writer, model.Value(d), ver(1, ctr))
		}
		stamp := model.Version{Date: model.VPID{N: 9, P: 1}, Ctr: ctr + 1}
		c1 := s1.Comps("x")
		c2 := s2.Comps("x")
		s1.MergeComps("x", c2, stamp)
		s2.MergeComps("x", c1, stamp)
		return s1.Get("x").Val == s2.Get("x").Val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	_ = build
}

func TestStageDeltaCommit(t *testing.T) {
	s := newTestStore(8)
	txn := model.TxnID{Start: 1, P: 2, Seq: 1}
	s.StageDelta("x", txn, 5, ver(1, 1))
	if s.Get("x").Val != 0 {
		t.Fatal("staging applied early")
	}
	if !s.CommitStaged("x", txn) {
		t.Fatal("commit failed")
	}
	if s.Get("x").Val != 5 {
		t.Fatalf("value = %d", s.Get("x").Val)
	}
	// The delta was charged to the coordinator's component (txn.P = 2).
	if got := s.Comps("x")[2].Total; got != 5 {
		t.Fatalf("component = %d", got)
	}
	// Aborted staged delta leaves no trace.
	txn2 := model.TxnID{Start: 2, P: 3, Seq: 1}
	s.StageDelta("x", txn2, 9, ver(1, 2))
	s.DropStaged("x", txn2)
	if s.Get("x").Val != 5 {
		t.Fatal("aborted delta leaked")
	}
}

func TestRestoreSeedsStore(t *testing.T) {
	s := newTestStore(8)
	copies := map[model.ObjectID]model.Copy{
		"x":   {Val: 9, Ver: ver(2, 4)},
		"zzz": {Val: 1}, // non-local: ignored
	}
	txn := model.TxnID{Start: 5, P: 1, Seq: 2}
	staged := map[model.TxnID]map[model.ObjectID]durable.StagedWrite{
		txn: {"y": {Val: 7, Ver: ver(2, 5), Delta: true}},
	}
	s.Restore(copies, staged)
	if got := s.Get("x"); got.Val != 9 || got.Ver.Ctr != 4 {
		t.Fatalf("restored x = %+v", got)
	}
	if by, ok := s.StagedBy("y"); !ok || by != txn {
		t.Fatal("staged write not restored")
	}
	// The restored staged write keeps its delta semantics.
	if !s.CommitStaged("y", txn) {
		t.Fatal("commit failed")
	}
	if got := s.Comps("y")[1].Total; got != 7 {
		t.Fatalf("delta flag lost on restore: comps = %+v", s.Comps("y"))
	}
}

func TestSetJournalWritesThrough(t *testing.T) {
	s := newTestStore(8)
	disk := durable.Memory()
	_, j, err := durable.OpenOptions("journal", durable.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	s.SetJournal(j)
	s.Apply("x", 42, ver(1, 1))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	st, _, err := durable.OpenOptions("journal", durable.Options{FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	if st.Copies["x"].Val != 42 {
		t.Fatalf("journal = %+v", st.Copies)
	}
}
