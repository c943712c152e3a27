package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestVPIDOrder(t *testing.T) {
	cases := []struct {
		a, b VPID
		less bool
	}{
		{VPID{0, 0}, VPID{1, 1}, true},
		{VPID{1, 1}, VPID{1, 2}, true},
		{VPID{1, 2}, VPID{1, 1}, false},
		{VPID{2, 1}, VPID{1, 9}, false},
		{VPID{1, 1}, VPID{1, 1}, false},
		{VPID{5, 3}, VPID{6, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestVPIDOrderIsTotal(t *testing.T) {
	// Antisymmetry + totality: exactly one of a<b, b<a, a==b holds.
	f := func(an, bn uint64, ap, bp uint8) bool {
		a := VPID{N: an % 8, P: ProcID(ap % 8)}
		b := VPID{N: bn % 8, P: ProcID(bp % 8)}
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVPIDOrderTransitive(t *testing.T) {
	f := func(an, bn, cn uint64, ap, bp, cp uint8) bool {
		a := VPID{N: an % 4, P: ProcID(ap % 4)}
		b := VPID{N: bn % 4, P: ProcID(bp % 4)}
		c := VPID{N: cn % 4, P: ProcID(cp % 4)}
		if a.Less(b) && b.Less(c) {
			return a.Less(c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTxnIDOrder(t *testing.T) {
	a := TxnID{Start: 1, P: 2, Seq: 1}
	b := TxnID{Start: 1, P: 2, Seq: 2}
	c := TxnID{Start: 2, P: 1, Seq: 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Fatalf("expected a < b < c, got a=%v b=%v c=%v", a, b, c)
	}
	if b.Less(a) || c.Less(a) {
		t.Fatal("order not antisymmetric")
	}
	if !(TxnID{}).IsZero() {
		t.Fatal("zero TxnID should report IsZero")
	}
}

func TestVersionOrder(t *testing.T) {
	v1 := Version{Date: VPID{1, 1}, Ctr: 5}
	v2 := Version{Date: VPID{1, 1}, Ctr: 6}
	v3 := Version{Date: VPID{2, 1}, Ctr: 0}
	if !v1.Less(v2) {
		t.Error("same date: lower counter should be older")
	}
	if !v2.Less(v3) {
		t.Error("higher date should dominate counter")
	}
	if v3.Less(v1) {
		t.Error("order reversed")
	}
}

func TestLockModeConflicts(t *testing.T) {
	if LockShared.Conflicts(LockShared) {
		t.Error("S/S must not conflict")
	}
	if !LockShared.Conflicts(LockExclusive) ||
		!LockExclusive.Conflicts(LockShared) ||
		!LockExclusive.Conflicts(LockExclusive) {
		t.Error("any pair involving X must conflict")
	}
}

func TestProcSetBasics(t *testing.T) {
	s := NewProcSet(3, 1, 2)
	if s.Len() != 3 || !s.Has(1) || !s.Has(2) || !s.Has(3) || s.Has(4) {
		t.Fatalf("bad set %v", s)
	}
	s.Add(4)
	s.Remove(2)
	want := []ProcID{1, 3, 4}
	got := s.Sorted()
	if len(got) != len(want) {
		t.Fatalf("Sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
	if s.String() != "{P1,P3,P4}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestProcSetAlgebra(t *testing.T) {
	a := NewProcSet(1, 2, 3)
	b := NewProcSet(2, 3, 4)
	if got := a & b; got != NewProcSet(2, 3) {
		t.Errorf("a & b = %v", got)
	}
	if got := a | b; got != NewProcSet(1, 2, 3, 4) {
		t.Errorf("a | b = %v", got)
	}
	if !NewProcSet(2, 3).Subset(a) || a.Subset(NewProcSet(1, 2)) {
		t.Error("Subset wrong")
	}
	c := a
	c.Add(9)
	if a.Has(9) {
		t.Error("a copy aliases the original")
	}
	if a != NewProcSet(3, 2, 1) || a == b {
		t.Error("== wrong")
	}
}

// procModel is the reference a ProcSet is checked against: a map, as the
// set was before it became a bitmask.
type procModel map[ProcID]bool

func (m procModel) sorted() []ProcID {
	var out []ProcID
	for p := range m {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Every ProcSet operation agrees with the map model over random subsets
// of 1..MaxProc, the extremes 1 and MaxProc included.
func TestProcSetMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func() (ProcSet, procModel) {
		var s ProcSet
		m := procModel{}
		density := rng.Intn(4) // empty-ish to nearly full
		for p := ProcID(1); p <= MaxProc; p++ {
			if density > 0 && rng.Intn(4) < density {
				s.Add(p)
				m[p] = true
			}
		}
		return s, m
	}
	for i := 0; i < 2000; i++ {
		a, am := random()
		b, bm := random()
		inter, union := procModel{}, procModel{}
		for p := range am {
			union[p] = true
			if bm[p] {
				inter[p] = true
			}
		}
		for p := range bm {
			union[p] = true
		}
		subset := len(inter) == len(am)
		ops := []struct {
			name      string
			got, want any
		}{
			{"Len", a.Len(), len(am)},
			{"Sorted", a.Sorted(), am.sorted()},
			{"&", (a & b).Sorted(), inter.sorted()},
			{"|", (a | b).Sorted(), union.sorted()},
			{"==", a == b, slices.Equal(am.sorted(), bm.sorted())},
			{"Subset", a.Subset(b), subset},
			{"NewProcSet", NewProcSet(am.sorted()...), a},
		}
		for _, op := range ops {
			if !reflect.DeepEqual(op.got, op.want) {
				t.Fatalf("%s of %v, %v: got %v, want %v", op.name, a, b, op.got, op.want)
			}
		}
		if want := "{" + strings.Join(strings.Fields(strings.Trim(fmt.Sprint(am.sorted()), "[]")), ",") + "}"; a.String() != want {
			t.Fatalf("String = %q, want %q", a.String(), want)
		}
		for p := ProcID(-1); p <= MaxProc+2; p++ {
			if a.Has(p) != am[p] {
				t.Fatalf("Has(%d) of %v = %v", p, a, a.Has(p))
			}
		}
		p := ProcID(1 + rng.Intn(int(MaxProc)))
		c := a
		c.Add(p)
		am[p] = true
		if !reflect.DeepEqual(c.Sorted(), am.sorted()) {
			t.Fatalf("Add(%d): %v, want %v", p, c, am.sorted())
		}
		c.Remove(p)
		delete(am, p)
		if !reflect.DeepEqual(c.Sorted(), am.sorted()) {
			t.Fatalf("Remove(%d): %v, want %v", p, c, am.sorted())
		}
	}
	var zero ProcSet
	if zero.Len() != 0 || zero.Sorted() != nil || zero.String() != "{}" {
		t.Fatalf("zero set: %v (len %d)", zero, zero.Len())
	}
}

func TestProcSetRefusesIDsOutOfRange(t *testing.T) {
	for _, p := range []ProcID{NoProc, -1, MaxProc + 1, 1000} {
		if CheckProc(p) == nil {
			t.Errorf("CheckProc(%d) accepted", p)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", p)
				}
			}()
			var s ProcSet
			s.Add(p)
		}()
	}
	for _, p := range []ProcID{1, MaxProc} {
		if err := CheckProc(p); err != nil {
			t.Errorf("CheckProc(%d): %v", p, err)
		}
	}
}

func TestProcSetAlgebraProperties(t *testing.T) {
	mk := func(bits uint8) ProcSet {
		s := NewProcSet()
		for i := 0; i < 8; i++ {
			if bits&(1<<i) != 0 {
				s.Add(ProcID(i + 1))
			}
		}
		return s
	}
	f := func(x, y uint8) bool {
		a, b := mk(x), mk(y)
		inter := a & b
		uni := a | b
		// |A| + |B| = |A∪B| + |A∩B|
		if a.Len()+b.Len() != uni.Len()+inter.Len() {
			return false
		}
		// A∩B ⊆ A ⊆ A∪B
		return inter.Subset(a) && a.Subset(uni) && inter.Subset(b) && b.Subset(uni)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementWeights(t *testing.T) {
	pl := Placement{
		Object:  "a",
		Holders: NewProcSet(1, 2),
		Weights: map[ProcID]int{1: 2},
	}
	if pl.Weight(1) != 2 || pl.Weight(2) != 1 || pl.Weight(3) != 0 {
		t.Fatal("Weight wrong")
	}
	if pl.TotalWeight() != 3 {
		t.Fatalf("TotalWeight = %d", pl.TotalWeight())
	}
	// Weight in {1} is 2 of 3 : strict majority.
	if !pl.AccessibleIn(NewProcSet(1)) {
		t.Error("weight-2 copy alone should be a majority of 3")
	}
	if pl.AccessibleIn(NewProcSet(2)) {
		t.Error("weight-1 copy alone should not be a majority of 3")
	}
}

// TestExample2Weights reproduces the copy table of the paper's Example 2
// (Table 2): each processor holds a weight-2 copy of one object and a
// weight-1 copy of the next, so each object has total weight 3 and is
// accessible from any view containing its weight-2 holder.
func TestExample2Weights(t *testing.T) {
	cat := NewCatalog(
		Placement{Object: "a", Holders: NewProcSet(1, 4), Weights: map[ProcID]int{1: 2}},
		Placement{Object: "b", Holders: NewProcSet(2, 1), Weights: map[ProcID]int{2: 2}},
		Placement{Object: "c", Holders: NewProcSet(3, 2), Weights: map[ProcID]int{3: 2}},
		Placement{Object: "d", Holders: NewProcSet(4, 3), Weights: map[ProcID]int{4: 2}},
	)
	// view(A)={A,D} after the re-partition: a accessible (A has weight 2),
	// d accessible (D has weight 2), b/c not.
	viewAD := NewProcSet(1, 4)
	if !cat.Accessible("a", viewAD) || !cat.Accessible("d", viewAD) {
		t.Error("a and d should be accessible in {A,D}")
	}
	if cat.Accessible("b", viewAD) {
		t.Error("b should not be accessible in {A,D}")
	}
	// Old view(A)={A,B}: a (2 of 3) and b (2+1 = all 3) accessible.
	viewAB := NewProcSet(1, 2)
	if !cat.Accessible("a", viewAB) || !cat.Accessible("b", viewAB) {
		t.Error("a and b should be accessible in {A,B}")
	}
}

// Objects with equal holders and weights share one copy set, copied
// once from the caller's: changing the caller's sets afterwards must not
// reach the catalog.
func TestCatalogInternsCopiesOfCallerSets(t *testing.T) {
	held := NewProcSet(1, 2, 3)
	w := map[ProcID]int{1: 2}
	cat := NewCatalog(
		Placement{Object: "x", Holders: held, Weights: w},
		Placement{Object: "y", Holders: held, Weights: map[ProcID]int{1: 2, 2: 1}},
		Placement{Object: "z", Holders: held},
	)
	held.Remove(1)
	held.Add(9)
	w[1] = 7
	for _, obj := range []ObjectID{"x", "y", "z"} {
		if got := cat.Copies(obj); got != NewProcSet(1, 2, 3) {
			t.Fatalf("Copies(%s) = %v after the caller's set changed", obj, got)
		}
	}
	if got := cat.Placement("x").Weight(1); got != 2 {
		t.Fatalf("weight of x at 1 = %d after the caller's map changed", got)
	}
	if cat.SetIndex("x") != cat.SetIndex("y") || cat.SetIndex("x") == cat.SetIndex("z") || len(cat.Sets()) != 2 {
		t.Fatalf("set indexes x=%d y=%d z=%d of %d sets; want x=y≠z of 2",
			cat.SetIndex("x"), cat.SetIndex("y"), cat.SetIndex("z"), len(cat.Sets()))
	}
	if cat.SetIndex("nope") != -1 {
		t.Fatal("unknown object has a copy set")
	}
}

func TestCatalogBasics(t *testing.T) {
	cat := FullyReplicated(3, "x", "y")
	if got := cat.Objects(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("Objects = %v", got)
	}
	if cat.Copies("x").Len() != 3 {
		t.Fatal("x should have 3 copies")
	}
	if cat.Copies("zzz") != 0 {
		t.Fatal("unknown object should have nil copies")
	}
	if !slices.Contains(cat.Local(2), "y") {
		t.Fatal("P2 should hold y")
	}
	if len(cat.Local(9)) != 0 {
		t.Fatal("P9 holds nothing")
	}
	if !cat.Accessible("x", NewProcSet(1, 2)) {
		t.Fatal("2 of 3 copies is a majority")
	}
	if cat.Accessible("x", NewProcSet(1)) {
		t.Fatal("1 of 3 copies is not a majority")
	}
	if cat.Accessible("nope", NewProcSet(1, 2, 3)) {
		t.Fatal("unknown object is never accessible")
	}
}

func TestCatalogPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() {
		NewCatalog(
			Placement{Object: "a", Holders: NewProcSet(1)},
			Placement{Object: "a", Holders: NewProcSet(2)},
		)
	})
	mustPanic("empty holders", func() {
		NewCatalog(Placement{Object: "a", Holders: NewProcSet()})
	})
	mustPanic("bad weight", func() {
		NewCatalog(Placement{Object: "a", Holders: NewProcSet(1), Weights: map[ProcID]int{1: 0}})
	})
	mustPanic("weight on non-holder", func() {
		NewCatalog(Placement{Object: "a", Holders: NewProcSet(1), Weights: map[ProcID]int{2: 1}})
	})
}

// Accessibility is monotone: growing the view never makes an accessible
// object inaccessible.
func TestAccessibilityMonotone(t *testing.T) {
	cat := NewCatalog(
		Placement{Object: "a", Holders: NewProcSet(1, 2, 3, 4, 5),
			Weights: map[ProcID]int{1: 3, 2: 2}},
	)
	views := []ProcSet{}
	for bits := 0; bits < 32; bits++ {
		v := NewProcSet()
		for i := 0; i < 5; i++ {
			if bits&(1<<i) != 0 {
				v.Add(ProcID(i + 1))
			}
		}
		views = append(views, v)
	}
	for _, small := range views {
		for _, big := range views {
			if small.Subset(big) && cat.Accessible("a", small) && !cat.Accessible("a", big) {
				t.Fatalf("monotonicity violated: %v accessible but superset %v not", small, big)
			}
		}
	}
	sort.SliceStable(views, func(i, j int) bool { return views[i].Len() < views[j].Len() })
	// At most one of two disjoint views can find the object accessible
	// (the majority-rule exclusion that underlies the whole protocol).
	for _, v1 := range views {
		for _, v2 := range views {
			if v1&v2 == 0 &&
				cat.Accessible("a", v1) && cat.Accessible("a", v2) {
				t.Fatalf("disjoint views %v and %v both have a majority", v1, v2)
			}
		}
	}
}

func TestSortedKeys(t *testing.T) {
	objs := SortedKeys(map[ObjectID]int{"c": 1, "a": 2, "b": 3})
	if len(objs) != 3 || objs[0] != "a" || objs[1] != "b" || objs[2] != "c" {
		t.Errorf("SortedKeys = %v", objs)
	}
	txns := SortedTxns(map[TxnID]bool{{Start: 2, P: 1}: true, {Start: 1, P: 2}: true, {Start: 1, P: 1, Seq: 5}: true})
	want := []TxnID{{Start: 1, P: 1, Seq: 5}, {Start: 1, P: 2}, {Start: 2, P: 1}}
	if len(txns) != 3 || txns[0] != want[0] || txns[1] != want[1] || txns[2] != want[2] {
		t.Errorf("SortedTxns = %v, want %v", txns, want)
	}
	if SortedKeys(map[ProcID]bool(nil)) == nil {
		t.Error("SortedKeys of an empty map is nil, want empty")
	}
}
