// Package workload generates the transaction mixes and failure schedules
// used by the experiments: read/write ratios over uniform or Zipf-like
// object popularity, increment/transfer transaction shapes, and
// partition/crash/heal schedules with configurable rates.
//
// Generators are deterministic functions of their seed, so experiment
// runs are exactly reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Mix describes a transaction mix.
type Mix struct {
	// ReadFraction is the probability that a generated transaction is
	// read-only (a single logical read). The remainder are read-modify-
	// write increments; a TransferFraction slice of those are two-object
	// transfers.
	ReadFraction float64
	// TransferFraction of the non-read transactions are transfers.
	TransferFraction float64
	// OpsPerRead is the number of logical reads in a read-only
	// transaction (default 1).
	OpsPerRead int
}

// Generator produces a deterministic stream of transactions.
type Generator struct {
	rng     *rand.Rand
	objects []model.ObjectID
	weights []float64 // cumulative popularity
	mix     Mix
	procs   []model.ProcID
	nextTag uint64
}

// Objects returns n object names o0..o{n-1}.
func Objects(n int) []model.ObjectID {
	out := make([]model.ObjectID, n)
	for i := range out {
		out[i] = model.ObjectID(fmt.Sprintf("o%d", i))
	}
	return out
}

// NewGenerator builds a generator over the given objects and submitting
// processors. zipf sets the skew of object popularity: 0 is uniform;
// larger values concentrate accesses on low-indexed objects (popularity
// of object i proportional to 1/(i+1)^zipf).
func NewGenerator(seed int64, objects []model.ObjectID, procs []model.ProcID, mix Mix, zipf float64) *Generator {
	if len(objects) == 0 || len(procs) == 0 {
		panic("workload: need at least one object and one processor")
	}
	if mix.OpsPerRead <= 0 {
		mix.OpsPerRead = 1
	}
	g := &Generator{
		rng:     rand.New(rand.NewSource(seed)),
		objects: objects,
		mix:     mix,
		procs:   procs,
	}
	cum := 0.0
	g.weights = make([]float64, len(objects))
	for i := range objects {
		cum += 1.0 / math.Pow(float64(i+1), zipf)
		g.weights[i] = cum
	}
	return g
}

func (g *Generator) pickObject() model.ObjectID {
	total := g.weights[len(g.weights)-1]
	x := g.rng.Float64() * total
	lo, hi := 0, len(g.weights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.weights[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.objects[lo]
}

// Txn is a generated transaction with its submission point.
type Txn struct {
	Coordinator model.ProcID
	Request     wire.ClientTxn
	ReadOnly    bool
}

// Next produces the next transaction in the stream.
func (g *Generator) Next() Txn {
	g.nextTag++
	coordinator := g.procs[g.rng.Intn(len(g.procs))]
	if g.rng.Float64() < g.mix.ReadFraction {
		ops := make([]wire.Op, g.mix.OpsPerRead)
		seen := make([]model.ObjectID, 0, len(ops))
		for i := range ops {
			o := g.pickObject()
			for slices.Contains(seen, o) && len(seen) < len(g.objects) {
				o = g.pickObject()
			}
			seen = append(seen, o)
			ops[i] = wire.ReadOp(o)
		}
		return Txn{Coordinator: coordinator, ReadOnly: true,
			Request: wire.ClientTxn{Tag: g.nextTag, Ops: ops}}
	}
	if g.rng.Float64() < g.mix.TransferFraction && len(g.objects) > 1 {
		a := g.pickObject()
		b := g.pickObject()
		for b == a {
			b = g.pickObject()
		}
		return Txn{Coordinator: coordinator,
			Request: wire.ClientTxn{Tag: g.nextTag, Ops: wire.TransferOps(a, b, 1)}}
	}
	return Txn{Coordinator: coordinator,
		Request: wire.ClientTxn{Tag: g.nextTag, Ops: wire.IncrementOps(g.pickObject(), 1)}}
}

// Schedule generates count transactions with exponentially distributed
// inter-arrival times around meanGap, starting at start.
func (g *Generator) Schedule(start time.Duration, meanGap time.Duration, count int) []ScheduledTxn {
	out := make([]ScheduledTxn, count)
	at := start
	for i := range out {
		gap := time.Duration(g.rng.ExpFloat64() * float64(meanGap))
		at += gap
		out[i] = ScheduledTxn{At: at, Txn: g.Next()}
	}
	return out
}

// ScheduledTxn pairs a transaction with its submission time.
type ScheduledTxn struct {
	At  time.Duration
	Txn Txn
}

// ---------------------------------------------------------------------------
// Failure schedules
// ---------------------------------------------------------------------------

// FaultKind enumerates topology events.
type FaultKind uint8

const (
	// FaultPartition splits the processors into two groups.
	FaultPartition FaultKind = iota
	// FaultCrash isolates one processor.
	FaultCrash
	// FaultHeal restores the full mesh.
	FaultHeal
)

// Fault is one scheduled topology event.
type Fault struct {
	At     time.Duration
	Kind   FaultKind
	Groups [][]model.ProcID // FaultPartition
	Victim model.ProcID     // FaultCrash
}

// FaultPlan generates an alternating fail/heal schedule: failures arrive
// with exponential inter-arrival times around mtbf; each is healed after
// an exponential repair time around mttr. Events never overlap (a new
// failure waits for the previous heal). The schedule covers [start, end).
func FaultPlan(seed int64, procs []model.ProcID, start, end, mtbf, mttr time.Duration) []Fault {
	rng := rand.New(rand.NewSource(seed))
	var out []Fault
	at := start
	for {
		at += time.Duration(rng.ExpFloat64() * float64(mtbf))
		if at >= end {
			return out
		}
		f := Fault{At: at}
		if rng.Intn(2) == 0 && len(procs) > 2 {
			// Random two-way partition with both sides nonempty.
			for {
				var a, b []model.ProcID
				for _, p := range procs {
					if rng.Intn(2) == 0 {
						a = append(a, p)
					} else {
						b = append(b, p)
					}
				}
				if len(a) > 0 && len(b) > 0 {
					f.Kind = FaultPartition
					f.Groups = [][]model.ProcID{a, b}
					break
				}
			}
		} else {
			f.Kind = FaultCrash
			f.Victim = procs[rng.Intn(len(procs))]
		}
		out = append(out, f)
		at += time.Duration(rng.ExpFloat64() * float64(mttr))
		if at >= end {
			return out
		}
		out = append(out, Fault{At: at, Kind: FaultHeal})
	}
}
