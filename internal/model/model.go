// Package model defines the basic identifiers and value types shared by
// every subsystem: processor ids, virtual partition ids, logical object
// names, transaction ids and copy versions.
//
// The types follow §3 and §5 of El Abbadi, Skeen & Cristian, "An Efficient,
// Fault-Tolerant Protocol for Replicated Data Management" (PODS 1985):
// a virtual partition identifier is a (sequence number, processor) pair
// totally ordered lexicographically, and every physical copy carries the
// identifier of the virtual partition in which it was last written (its
// "date").
package model

import (
	"cmp"
	"fmt"
)

// ProcID identifies a processor. Processors are numbered 1..n; 0 is
// reserved as "no processor" and is also used as the pseudo-sender for
// client requests injected by a harness.
type ProcID int

// NoProc is the zero ProcID, used where a processor is not applicable.
const NoProc ProcID = 0

func (p ProcID) String() string {
	if p == NoProc {
		return "-"
	}
	return fmt.Sprintf("P%d", int(p))
}

// VPID is a virtual partition identifier: a sequence number paired with
// the initiating processor's id (paper, Figure 3, line 2). VPIDs are
// totally ordered by (N, P) — the relation "≺" of §5 — which the paper
// proves is a legal creation order for property S3.
type VPID struct {
	N uint64 // sequence number
	P ProcID // initiating processor
}

// Less reports whether v ≺ w in the paper's total order over vp-ids:
// (n,p) ≺ (n',p') iff n < n' or (n = n' and p < p').
func (v VPID) Less(w VPID) bool {
	if v.N != w.N {
		return v.N < w.N
	}
	return v.P < w.P
}

// IsZero reports whether v is the zero identifier (0, NoProc), which
// predates every partition created at run time.
func (v VPID) IsZero() bool { return v.N == 0 && v.P == NoProc }

func (v VPID) String() string { return fmt.Sprintf("vp(%d,%s)", v.N, v.P) }

// ObjectID names a logical data object (an element of the set L in §3).
type ObjectID string

// ShardID identifies one shard of a sharded namespace (see
// internal/shard). Shards are numbered 1..K; 0 is reserved for the
// unsharded deployment, where a single virtual partition governs the
// whole cluster. Keeping 0 as "no shard" lets every shard-tagged
// structure degenerate byte-identically to its unsharded form.
type ShardID int

// NoShard is the zero ShardID, used in unsharded deployments.
const NoShard ShardID = 0

func (s ShardID) String() string {
	if s == NoShard {
		return "-"
	}
	return fmt.Sprintf("S%d", int(s))
}

// TxnID identifies a transaction. IDs are totally ordered by (Start, P,
// Seq); the order doubles as the age order used by the wait-die deadlock
// avoidance scheme (an id that is Less is "older").
type TxnID struct {
	Start int64  // coordinator virtual time at Begin, in nanoseconds
	P     ProcID // coordinating processor
	Seq   uint64 // per-coordinator sequence number
}

// Less reports whether t is older than u (started earlier, with ties
// broken by processor then sequence number).
func (t TxnID) Less(u TxnID) bool { return t.Compare(u) < 0 }

// Compare orders t and u as Less does: -1, 0 or +1.
func (t TxnID) Compare(u TxnID) int {
	if t.Start != u.Start {
		return cmp.Compare(t.Start, u.Start)
	}
	if t.P != u.P {
		return cmp.Compare(t.P, u.P)
	}
	return cmp.Compare(t.Seq, u.Seq)
}

// IsZero reports whether t is the zero TxnID, which tags initial values.
func (t TxnID) IsZero() bool { return t == TxnID{} }

func (t TxnID) String() string {
	if t.IsZero() {
		return "t0"
	}
	return fmt.Sprintf("t(%d.%d@%s)", t.Start, t.Seq, t.P)
}

// Value is the content of a physical copy. The library models integer
// registers, which is sufficient for every experiment in the paper
// (increments, transfers, read-modify-write) while keeping histories
// checkable for one-copy serializability.
type Value int64

// Version orders the writes applied to the copies of one logical object.
//
//   - Date is the virtual partition identifier current when the copy was
//     last written — the "date: L → V" function of §5. Protocols without
//     virtual partitions (quorum consensus, majority voting) leave Date at
//     its zero value and order writes by Ctr alone, which degenerates to
//     Gifford-style version numbers.
//   - Ctr is a per-object write counter: a writer reads the maximum
//     counter among the copies it locks and adds one.
//   - Writer tags the transaction that produced the value. It does not
//     participate in the order; it exists for the one-copy serializability
//     checker and for debugging.
type Version struct {
	Date   VPID
	Ctr    uint64
	Writer TxnID
}

// Less reports whether v is older than w: lexicographic on (Date, Ctr).
func (v Version) Less(w Version) bool {
	if v.Date != w.Date {
		return v.Date.Less(w.Date)
	}
	return v.Ctr < w.Ctr
}

func (v Version) String() string {
	return fmt.Sprintf("ver(%s#%d by %s)", v.Date, v.Ctr, v.Writer)
}

// Copy is one physical copy of a logical object as stored at a processor:
// the pair (value(l), date(l)) of §5 plus the checker tags in Version.
type Copy struct {
	Val Value
	Ver Version
}

// LockMode distinguishes shared (read) from exclusive (write) copy locks.
type LockMode uint8

const (
	// LockShared is acquired by physical reads.
	LockShared LockMode = iota
	// LockExclusive is acquired by physical writes.
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

// Conflicts reports whether two lock modes conflict (at least one
// exclusive), i.e. whether the corresponding physical operations conflict
// in the sense of §4.
func (m LockMode) Conflicts(o LockMode) bool {
	return m == LockExclusive || o == LockExclusive
}
