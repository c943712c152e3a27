package model

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// ProcSet is a set of processors, e.g. a view, the membership of a
// virtual partition, or the placement copies(l) of a logical object.
// Processors are numbered 1..MaxProc and bit p-1 stands for processor p,
// so a set is a value: assignment copies it, & and | intersect and
// unite, == compares, and the zero value is the empty set.
type ProcSet uint64

// MaxProc is the largest processor id a ProcSet holds. Every id that
// enters the program from outside is checked against it (CheckProc).
const MaxProc ProcID = 64

// CheckProc refuses a processor id outside 1..MaxProc.
func CheckProc(p ProcID) error {
	if p < 1 || p > MaxProc {
		return fmt.Errorf("processor id %d outside 1..%d", int(p), int(MaxProc))
	}
	return nil
}

// NewProcSet builds a set from the given processors. It panics on an id
// outside 1..MaxProc: such an id was refused where it entered.
func NewProcSet(ps ...ProcID) ProcSet {
	var s ProcSet
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// Has reports membership.
func (s ProcSet) Has(p ProcID) bool {
	return p >= 1 && p <= MaxProc && s&(1<<(p-1)) != 0
}

// Add inserts p. It panics on an id outside 1..MaxProc.
func (s *ProcSet) Add(p ProcID) {
	if err := CheckProc(p); err != nil {
		panic(err)
	}
	*s |= 1 << (p - 1)
}

// Remove deletes p.
func (s *ProcSet) Remove(p ProcID) {
	if p >= 1 && p <= MaxProc {
		*s &^= 1 << (p - 1)
	}
}

// Len returns the cardinality.
func (s ProcSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Subset reports whether s ⊆ t.
func (s ProcSet) Subset(t ProcSet) bool { return s&^t == 0 }

// Sorted returns the members in ascending order; it is how a set is
// iterated. The order matters: protocol code must never let an
// arbitrary order influence messages or timers.
func (s ProcSet) Sorted() []ProcID {
	if s == 0 {
		return nil
	}
	out := make([]ProcID, 0, s.Len())
	for rest := uint64(s); rest != 0; rest &= rest - 1 {
		out = append(out, ProcID(bits.TrailingZeros64(rest)+1))
	}
	return out
}

func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Sorted() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// ObjSet is a set of logical objects, e.g. the "locked" variable of the
// replica control protocol (Figure 3, line 6).
type ObjSet map[ObjectID]struct{}

// NewObjSet builds a set from the given objects.
func NewObjSet(objs ...ObjectID) ObjSet {
	s := make(ObjSet, len(objs))
	for _, o := range objs {
		s[o] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s ObjSet) Has(o ObjectID) bool {
	_, ok := s[o]
	return ok
}

// Add inserts o.
func (s ObjSet) Add(o ObjectID) { s[o] = struct{}{} }

// Remove deletes o.
func (s ObjSet) Remove(o ObjectID) { delete(s, o) }

// Len returns the cardinality.
func (s ObjSet) Len() int { return len(s) }

// Sorted returns the objects in lexicographic order.
func (s ObjSet) Sorted() []ObjectID {
	out := make([]ObjectID, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
