package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
)

// TestPropertyRandomFaults is the executable form of Theorem 1: under
// randomized partition/heal/crash schedules and a randomized workload,
// every execution the protocol produces is one-copy serializable, view
// invariants S1/S2 hold at every sampled instant, and after a final heal
// the copies of every object converge.
func TestPropertyRandomFaults(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomFaultTrial(t, seed, false)
		})
	}
}

// TestPropertyRandomFaultsWeakR4 repeats the property under the §6
// weakened rule R4.
func TestPropertyRandomFaultsWeakR4(t *testing.T) {
	for seed := int64(200); seed < 206; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomFaultTrial(t, seed, true)
		})
	}
}

func runRandomFaultTrial(t *testing.T, seed int64, weakR4 bool) {
	t.Helper()
	f := buildRandomFaultTrial(t, seed, weakR4)
	finishRandomFaultTrial(t, seed, f)
}

// buildRandomFaultTrial constructs the fixture and schedules the fault
// schedule, workload and invariant samples (split out so a debug test
// can interpose tracing).
func buildRandomFaultTrial(t *testing.T, seed int64, weakR4 bool) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3) // 3..5 processors
	objects := []model.ObjectID{"a", "b", "c"}
	var placements []model.Placement
	for _, o := range objects {
		// Random placement over a random majority-capable subset with
		// random weights 1..2.
		holders := model.NewProcSet()
		for p := 1; p <= n; p++ {
			if rng.Intn(3) > 0 { // ~2/3 chance each node holds a copy
				holders.Add(model.ProcID(p))
			}
		}
		if holders.Len() < 2 {
			holders = model.NewProcSet(1, 2)
		}
		weights := map[model.ProcID]int{}
		for _, p := range holders.Sorted() {
			if rng.Intn(3) == 0 {
				weights[p] = 2
			}
		}
		placements = append(placements, model.Placement{Object: o, Holders: holders, Weights: weights})
	}
	cat := model.NewCatalog(placements...)
	cfg := fixtureConfig()
	cfg.WeakR4 = weakR4
	cfg.UsePrevOpt = rng.Intn(2) == 0
	cfg.UseLogCatchup = rng.Intn(2) == 0
	f := newFixtureCfg(t, cat, n, cfg, seed)

	const horizon = 6 * time.Second
	// Random fault schedule: every 150–400ms, re-shape the topology.
	at := tDeltaBound
	for {
		at += time.Duration(150+rng.Intn(250)) * time.Millisecond
		if at >= horizon-time.Second {
			break // no fault may fire after the final heal
		}
		at := at
		switch rng.Intn(4) {
		case 0: // random two-way partition
			var a, b []model.ProcID
			for p := 1; p <= n; p++ {
				if rng.Intn(2) == 0 {
					a = append(a, model.ProcID(p))
				} else {
					b = append(b, model.ProcID(p))
				}
			}
			f.cluster.At(at, "fault-partition", func() { f.topo.Partition(a, b) })
		case 1: // crash one node
			victim := model.ProcID(rng.Intn(n) + 1)
			f.cluster.At(at, "fault-crash", func() { f.topo.Crash(victim) })
		case 2: // drop a single link
			a := model.ProcID(rng.Intn(n) + 1)
			b := model.ProcID(rng.Intn(n) + 1)
			if a != b {
				f.cluster.At(at, "fault-link", func() { f.topo.SetLink(a, b, false) })
			}
		case 3: // heal everything
			f.cluster.At(at, "heal", func() { f.topo.FullMesh() })
		}
	}
	// Final heal, with time to converge.
	f.cluster.At(horizon-time.Second, "final-heal", func() { f.topo.FullMesh() })

	// Random workload: ~60 transactions spread over the horizon.
	for i := 0; i < 60; i++ {
		at := tDeltaBound + time.Duration(rng.Int63n(int64(horizon-1500*time.Millisecond)))
		p := model.ProcID(rng.Intn(n) + 1)
		var ops []wire.Op
		switch rng.Intn(3) {
		case 0:
			ops = []wire.Op{wire.ReadOp(objects[rng.Intn(len(objects))])}
		case 1:
			ops = wire.IncrementOps(objects[rng.Intn(len(objects))], 1)
		case 2:
			a := objects[rng.Intn(len(objects))]
			b := objects[rng.Intn(len(objects))]
			if a != b {
				ops = wire.TransferOps(a, b, 1)
			} else {
				ops = wire.IncrementOps(a, 1)
			}
		}
		f.submit(at, p, ops)
	}
	// Sample S1/S2 periodically.
	for at := tDeltaBound; at < horizon; at += 100 * time.Millisecond {
		f.cluster.At(at, "invariant-sample", func() { f.checkS1S2() })
	}
	return f
}

func finishRandomFaultTrial(t *testing.T, seed int64, f *fixture) {
	t.Helper()
	const horizon = 6 * time.Second
	objects := []model.ObjectID{"a", "b", "c"}
	cat := f.nodes[1].Cat
	f.run(horizon + 4*tDeltaBound)

	// One-copy serializability of everything committed.
	committed := f.hist.Committed()
	if len(committed) <= 60 {
		if r := onecopy.Check(f.hist); !r.OK {
			t.Fatalf("seed %d: not 1SR: %s\n%s", seed, r.Reason, f.hist)
		}
	}
	if r := onecopy.CheckGraph(f.hist); !r.OK {
		t.Fatalf("seed %d: graph check failed: %s\n%s", seed, r.Reason, f.hist)
	}
	// After the final heal, all nodes share a view and copies converge.
	f.requireCommonView(f.topo.Procs()...)
	for _, o := range objects {
		vals := map[model.Value]bool{}
		for _, p := range cat.Copies(o).Sorted() {
			vals[f.nodes[p].Store.Get(o).Val] = true
		}
		if len(vals) != 1 {
			t.Fatalf("seed %d: copies of %s diverged after final heal: %v", seed, o, vals)
		}
	}
}
