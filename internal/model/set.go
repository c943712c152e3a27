package model

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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

// IsProc reports whether p is a processor id, in 1..MaxProc. Clients
// (NoProc) are not.
func IsProc(p ProcID) bool { return p >= 1 && p <= MaxProc }

// CheckProc refuses a processor id outside 1..MaxProc.
func CheckProc(p ProcID) error {
	if !IsProc(p) {
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
	return IsProc(p) && s&(1<<(p-1)) != 0
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
	if IsProc(p) {
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

// SortedKeys returns m's keys in ascending order. It is how a map is
// iterated wherever the order can reach a message, a timer or the disk.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SortedTxns is SortedKeys for a map keyed by transaction: oldest first.
func SortedTxns[V any](m map[TxnID]V) []TxnID {
	txns := make([]TxnID, 0, len(m))
	for t := range m {
		txns = append(txns, t)
	}
	slices.SortFunc(txns, TxnID.Compare)
	return txns
}
