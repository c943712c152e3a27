package vp_test

// Benchmark harness: one benchmark per experiment in the per-experiment
// index of DESIGN.md §3. Each run regenerates the corresponding table of
// EXPERIMENTS.md deterministically (seeded simulation); -v prints it.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE3 -v          # print the E3 table
//
// The reported ns/op is the wall-clock cost of regenerating the whole
// table (the experiments themselves measure virtual time and message
// counts internally, which is what EXPERIMENTS.md records).

import (
	"testing"
	"time"

	vp "github.com/virtualpartitions/vp"
	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := bench.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var table *bench.Table
	for i := 0; i < b.N; i++ {
		table = e.Run(int64(i + 1))
	}
	if table == nil || len(table.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	if testing.Verbose() {
		b.Log("\n" + table.String())
	}
}

// BenchmarkE1Example1 regenerates E1: the paper's Example 1 anomaly
// (naive rules) and its prevention (VP protocol) on the Figure 1 graph.
func BenchmarkE1Example1(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2Example2 regenerates E2: the paper's Example 2 re-partition
// anomaly (Tables 1–2) and its prevention.
func BenchmarkE2Example2(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE3AccessCost regenerates E3: physical accesses per logical
// operation across read fractions, VP vs quorum vs missing-writes vs
// ROWA (the §1 efficiency claim).
func BenchmarkE3AccessCost(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkE4MessageCost regenerates E4: messages per committed
// transaction on the same sweep.
func BenchmarkE4MessageCost(b *testing.B) { runExperiment(b, "e4") }

// BenchmarkE5Availability regenerates E5: availability under randomized
// partitions and crashes.
func BenchmarkE5Availability(b *testing.B) { runExperiment(b, "e5") }

// BenchmarkE6Liveness regenerates E6: view convergence time vs the
// π + 8δ bound of §5.
func BenchmarkE6Liveness(b *testing.B) { runExperiment(b, "e6") }

// BenchmarkE7Staleness regenerates E7: stale reads before partition
// detection vs probe period (§4's staleness discussion).
func BenchmarkE7Staleness(b *testing.B) { runExperiment(b, "e7") }

// BenchmarkE8PrevOpt regenerates E8: the §6 previous-partition refresh
// optimization ablation.
func BenchmarkE8PrevOpt(b *testing.B) { runExperiment(b, "e8") }

// BenchmarkE9LogCatchup regenerates E9: §6 log-based catch-up vs
// full-copy refresh bytes.
func BenchmarkE9LogCatchup(b *testing.B) { runExperiment(b, "e9") }

// BenchmarkE10WeakR4 regenerates E10: strict vs weakened rule R4 abort
// rates.
func BenchmarkE10WeakR4(b *testing.B) { runExperiment(b, "e10") }

// BenchmarkE11ReadCostUnderFailure regenerates E11: read-one under
// failures vs the missing-writes protocol (§1/§7 comparison).
func BenchmarkE11ReadCostUnderFailure(b *testing.B) { runExperiment(b, "e11") }

// BenchmarkE12Randomized regenerates E12: randomized fault injection
// with one-copy serializability verdicts (Theorem 1, executable).
func BenchmarkE12Randomized(b *testing.B) { runExperiment(b, "e12") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the building blocks
// ---------------------------------------------------------------------------

// BenchmarkSimulatedCommit measures the simulator's transaction
// processing rate: committed increments per wall-clock second on a
// healthy 5-node VP cluster.
func BenchmarkSimulatedCommit(b *testing.B) {
	r := bench.NewRunner(bench.Spec{Protocol: bench.ProtoVP, N: 5, Objects: 100, Seed: 1})
	start := r.WarmUp()
	gen := workload.NewGenerator(1, workload.Objects(100), r.Topo.Procs(),
		workload.Mix{ReadFraction: 0.5}, 0)
	b.ResetTimer()
	at := start
	for i := 0; i < b.N; i++ {
		at += 2 * time.Millisecond
		r.Submit(at, gen.Next())
	}
	r.Run(at + time.Second)
	b.StopTimer()
	res := r.Stats()
	if res.Committed == 0 {
		b.Fatal("nothing committed")
	}
	b.ReportMetric(float64(res.Committed)/float64(b.N), "commits/txn")
}

// BenchmarkRealtimeIncrement measures end-to-end latency of an increment
// through the public API over the in-memory real-time engine.
func BenchmarkRealtimeIncrement(b *testing.B) {
	// δ must comfortably exceed OS timer jitter or probes misfire and
	// churn views; 5ms (the facade default) is the validated floor for
	// the real-time engine.
	c, err := vp.New(vp.Config{
		Nodes:   3,
		Objects: []vp.Object{{Name: "x"}},
		Delta:   5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if !c.WaitForView(10*time.Second, 1, 2, 3) {
		b.Fatal("no view")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DoRetry(i%3+1, 10*time.Second, vp.Increment("x", 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerExact measures the exact 1SR checker on serial
// histories of 20 transactions.
func BenchmarkCheckerExact(b *testing.B) {
	recs := serialHistory(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := onecopy.CheckRecords(recs); !r.OK {
			b.Fatal(r.Reason)
		}
	}
}

// BenchmarkCheckerGraph measures the graph 1SR checker on serial
// histories of 500 transactions.
func BenchmarkCheckerGraph(b *testing.B) {
	recs := serialHistory(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := onecopy.CheckGraphRecords(recs); !r.OK {
			b.Fatal(r.Reason)
		}
	}
}

func serialHistory(n int) []onecopy.TxnRecord {
	objects := []model.ObjectID{"a", "b", "c", "d"}
	cur := map[model.ObjectID]model.Version{}
	recs := make([]onecopy.TxnRecord, n)
	for i := 0; i < n; i++ {
		id := model.TxnID{Start: int64(i + 1), P: 1, Seq: uint64(i + 1)}
		obj := objects[i%len(objects)]
		ver := model.Version{Date: model.VPID{N: 1, P: 1}, Ctr: uint64(i + 1), Writer: id}
		recs[i] = onecopy.TxnRecord{
			ID:        id,
			Committed: true,
			Reads:     map[model.ObjectID]model.Version{obj: cur[obj]},
			Writes:    map[model.ObjectID]model.Version{obj: ver},
		}
		cur[obj] = ver
	}
	return recs
}

// BenchmarkWireRoundTrip measures envelope encode+decode through the
// binary codec, the TCP transport's per-message cost.
func BenchmarkWireRoundTrip(b *testing.B) {
	env := wire.Envelope{From: 1, To: 2, Msg: wire.Prepare{
		Txn:   model.TxnID{Start: 1, P: 1, Seq: 1},
		Epoch: model.VPID{N: 3, P: 1}, HasEpoch: true,
		Writes: []wire.ObjWrite{{Obj: "x", Val: 42,
			Ver: model.Version{Date: model.VPID{N: 3, P: 1}, Ctr: 9}}},
	}}
	var enc wire.FrameEncoder
	dec := wire.NewDecoder()
	var out wire.Envelope
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := enc.Encode(&env)
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeInto(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13ReplicationFactor regenerates E13: copies-per-object sweep
// (read cost stays ~1, write cost scales, availability improves).
func BenchmarkE13ReplicationFactor(b *testing.B) { runExperiment(b, "e13") }

// BenchmarkE14ClusterSize regenerates E14: processor-count sweep
// separating flat per-transaction cost from quadratic probe overhead.
func BenchmarkE14ClusterSize(b *testing.B) { runExperiment(b, "e14") }

// BenchmarkE15MessageLoss regenerates E15: uniform omission-failure
// sweep (availability degrades, 1SR holds).
func BenchmarkE15MessageLoss(b *testing.B) { runExperiment(b, "e15") }

// BenchmarkE16Mergeable regenerates E16: the §7 integration — mergeable
// counters over the VP view machinery vs strict majority mode.
func BenchmarkE16Mergeable(b *testing.B) { runExperiment(b, "e16") }
