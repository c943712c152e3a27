package bench

import (
	"fmt"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(seed int64) *Table
}

// All lists every experiment, in paper order (see DESIGN.md §3).
var All = []Experiment{
	{"e1", "Example 1 (Fig 1): non-transitive graph anomaly", E1},
	{"e2", "Example 2 (Fig 2, Tables 1-2): asynchronous view update anomaly", E2},
	{"e3", "physical accesses per logical operation vs read fraction", E3},
	{"e4", "messages per committed transaction vs read fraction", E4},
	{"e5", "availability under partitions and crashes", E5},
	{"e6", "view convergence time vs liveness bound pi+8delta", E6},
	{"e7", "stale reads vs probe period", E7},
	{"e8", "ablation: previous-partition refresh skipping", E8},
	{"e9", "ablation: log-based catch-up vs full-copy refresh", E9},
	{"e10", "ablation: weakened rule R4 abort rates", E10},
	{"e11", "read cost in the presence of failures (vs missing-writes)", E11},
	{"e12", "randomized fault injection: one-copy serializability", E12},
	{"e13", "replication factor: cost and availability trade-off", E13},
	{"e14", "cluster size scaling: txn vs view-management cost", E14},
	{"e15", "uniform message loss tolerance", E15},
	{"e16", "section-7 integration: mergeable counters vs strict VP", E16},
}

// Find returns the experiment with the given id, or nil.
func Find(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

const msTick = time.Millisecond

// ---------------------------------------------------------------------------
// E1 — Example 1
// ---------------------------------------------------------------------------

// E1 runs the paper's Example 1 on the naive protocol and on the virtual
// partition protocol: two increments of a thrice-replicated object from
// two processors that cannot talk to each other but both reach a third.
func E1(seed int64) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Example 1: two increments on the Figure 1 graph",
		Source: "paper §4, Example 1 and Figure 1",
		Header: []string{"protocol", "increments committed", "final x", "lost update", "1SR"},
	}
	const A, B, C = 1, 2, 3
	// --- naive ---
	{
		r := NewRunner(Spec{Protocol: ProtoNaive, N: 3, Objects: 1, Seed: seed})
		r.Topo.SetLink(A, B, false)
		r.NaiveNode(A).SetView(model.NewProcSet(A, C))
		r.NaiveNode(B).SetView(model.NewProcSet(B, C))
		r.NaiveNode(C).SetView(model.NewProcSet(A, B, C))
		r.Submit(10*msTick, workload.Txn{Coordinator: A,
			Request: wire.ClientTxn{Tag: 1, Ops: wire.IncrementOps("o0", 1)}})
		r.Submit(500*msTick, workload.Txn{Coordinator: B,
			Request: wire.ClientTxn{Tag: 2, Ops: wire.IncrementOps("o0", 1)}})
		r.Run(2 * time.Second)
		res := r.Stats()
		final := r.NaiveNode(C).Store.Get("o0").Val
		exact := onecopy.Check(r.Hist)
		t.Add(string(ProtoNaive), res.Committed, int64(final),
			res.Committed == 2 && final == 1, exact.OK)
	}
	// --- virtual partitions ---
	{
		r := NewRunner(Spec{Protocol: ProtoVP, N: 3, Objects: 1, Seed: seed})
		r.Topo.SetLink(A, B, false)
		r.WarmUp()
		// Retry each increment until it commits (partitions oscillate on
		// a non-transitive graph; commits land when the submitter holds
		// a majority view).
		committed := map[model.ProcID]bool{}
		var tag uint64 = 10
		for round := 0; round < 60; round++ {
			// Stagger attempts across the probe cycle so retries do not
			// resonate with the partition oscillation the non-transitive
			// graph induces.
			offset := time.Duration(round*37%200) * msTick
			at := r.Cluster.Engine.Now() + offset
			for _, p := range []model.ProcID{A, B} {
				if committed[p] {
					continue
				}
				tag++
				myTag := tag
				who := p
				r.Submit(at, workload.Txn{Coordinator: p,
					Request: wire.ClientTxn{Tag: myTag, Ops: wire.IncrementOps("o0", 1)}})
				r.Cluster.At(at+300*msTick, "check", func() {
					if res, ok := r.results[myTag]; ok && res.Committed {
						committed[who] = true
					}
				})
			}
			r.Run(at + 400*msTick)
			if committed[A] && committed[B] {
				break
			}
		}
		r.Topo.FullMesh()
		r.Run(r.Cluster.Engine.Now() + time.Second)
		final := r.VPNode(C).Store.Get("o0").Val
		exact := onecopy.Check(r.Hist)
		n := 0
		for _, ok := range committed {
			if ok {
				n++
			}
		}
		t.Add(string(ProtoVP), n, int64(final), n == 2 && final == 1, exact.OK)
	}
	t.Notes = append(t.Notes,
		"naive commits both increments but all copies end at 1 (the lost update of Example 1); the VP protocol serializes them to 2 and stays 1SR")
	return t
}

// ---------------------------------------------------------------------------
// E2 — Example 2
// ---------------------------------------------------------------------------

func example2Catalog() *model.Catalog {
	const A, B, C, D = 1, 2, 3, 4
	return model.NewCatalog(
		model.Placement{Object: "a", Holders: model.NewProcSet(A, D), Weights: map[model.ProcID]int{A: 2}},
		model.Placement{Object: "b", Holders: model.NewProcSet(B, A), Weights: map[model.ProcID]int{B: 2}},
		model.Placement{Object: "c", Holders: model.NewProcSet(C, B), Weights: map[model.ProcID]int{C: 2}},
		model.Placement{Object: "d", Holders: model.NewProcSet(D, C), Weights: map[model.ProcID]int{D: 2}},
	)
}

func example2Ops() map[model.ProcID][]wire.Op {
	return map[model.ProcID][]wire.Op{
		1: {wire.ReadOp("b"), {Kind: wire.OpWrite, Obj: "a", Src: "b", UseSrc: true, Const: 1}},
		2: {wire.ReadOp("c"), {Kind: wire.OpWrite, Obj: "b", Src: "c", UseSrc: true, Const: 1}},
		3: {wire.ReadOp("d"), {Kind: wire.OpWrite, Obj: "c", Src: "d", UseSrc: true, Const: 1}},
		4: {wire.ReadOp("a"), {Kind: wire.OpWrite, Obj: "d", Src: "a", UseSrc: true, Const: 1}},
	}
}

// E2 replays the paper's Example 2: the re-partition of Figure 2 with
// the half-updated views of Table 1 and the transactions of Table 2.
func E2(seed int64) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Example 2: re-partition with inconsistent views",
		Source: "paper §4, Example 2, Figure 2, Tables 1 and 2",
		Header: []string{"protocol", "txns committed", "1SR"},
	}
	const A, B, C, D = 1, 2, 3, 4
	// --- naive, views exactly as in Table 1 ---
	{
		r := NewRunner(Spec{Protocol: ProtoNaive, N: 4, CustomCatalog: example2Catalog(), Seed: seed})
		r.Topo.Partition([]model.ProcID{B, C}, []model.ProcID{A, D})
		r.NaiveNode(A).SetView(model.NewProcSet(A, B))
		r.NaiveNode(B).SetView(model.NewProcSet(B, C))
		r.NaiveNode(C).SetView(model.NewProcSet(C, D))
		r.NaiveNode(D).SetView(model.NewProcSet(A, D))
		tag := uint64(0)
		for p, ops := range example2Ops() {
			tag++
			r.Submit(time.Duration(p)*10*msTick, workload.Txn{Coordinator: p,
				Request: wire.ClientTxn{Tag: tag, Ops: ops}})
		}
		r.Run(3 * time.Second)
		res := r.Stats()
		t.Add(string(ProtoNaive), res.Committed, onecopy.Check(r.Hist).OK)
	}
	// --- virtual partitions, same physical scenario ---
	{
		r := NewRunner(Spec{Protocol: ProtoVP, N: 4, CustomCatalog: example2Catalog(), Seed: seed})
		r.Topo.Partition([]model.ProcID{A, B}, []model.ProcID{C, D})
		r.WarmUp()
		at := r.Cluster.Engine.Now()
		r.Cluster.At(at, "repartition", func() {
			r.Topo.Partition([]model.ProcID{B, C}, []model.ProcID{A, D})
		})
		tag := uint64(100)
		for p, ops := range example2Ops() {
			tag++
			r.Submit(at+time.Duration(p)*msTick, workload.Txn{Coordinator: p,
				Request: wire.ClientTxn{Tag: tag, Ops: ops}})
			tag++
			r.Submit(at+100*msTick, workload.Txn{Coordinator: p,
				Request: wire.ClientTxn{Tag: tag, Ops: ops}})
		}
		r.Run(at + 5*time.Second)
		res := r.Stats()
		t.Add(string(ProtoVP), res.Committed, onecopy.Check(r.Hist).OK)
	}
	t.Notes = append(t.Notes,
		"naive commits all four Table 2 transactions forming the serialization cycle (not 1SR); the VP protocol admits only a 1SR subset")
	return t
}

// ---------------------------------------------------------------------------
// E3/E4 — cost vs read fraction (failure-free)
// ---------------------------------------------------------------------------

func costSweep(seed int64, header []string, pick func(Result) []any) *Table {
	t := &Table{Header: header}
	protos := []Protocol{ProtoVP, ProtoQuorum, ProtoMW, ProtoROWA}
	for _, rf := range []float64{0.50, 0.80, 0.90, 0.95, 0.99} {
		for _, proto := range protos {
			r := NewRunner(Spec{Protocol: proto, N: 5, Objects: 10, Seed: seed})
			start := r.WarmUp()
			gen := workload.NewGenerator(seed+int64(rf*100), workload.Objects(10),
				r.Topo.Procs(), workload.Mix{ReadFraction: rf}, 0)
			sched := gen.Schedule(start, 2*msTick, 1000)
			r.Load(sched)
			r.Run(sched[len(sched)-1].At + 2*time.Second)
			res := r.Stats()
			row := append([]any{fmt.Sprintf("%.2f", rf), string(proto)}, pick(res)...)
			t.Add(row...)
		}
	}
	return t
}

// E3 measures physical accesses per logical operation across read
// fractions in a failure-free 5-processor cluster, full replication.
// The paper's claim (§1): with read-one/write-all-in-view, a logical
// read costs one physical read where quorum schemes pay a majority.
func E3(seed int64) *Table {
	t := costSweep(seed,
		[]string{"read-frac", "protocol", "phys-reads/log-read", "phys-writes/log-write", "availability", "1SR"},
		func(r Result) []any {
			return []any{r.PhysReadsPerLogicalRead, r.PhysWritesPerLogicalWrite, r.Availability, r.OneCopySR}
		})
	t.ID, t.Title = "E3", "physical accesses per logical operation (failure-free)"
	t.Source = "paper §1/§4: read-one beats read-majority when reads dominate"
	return t
}

// E4 measures network messages per committed transaction on the same
// sweep, split into per-transaction protocol cost and total cost
// including the VP protocol's periodic probe traffic.
func E4(seed int64) *Table {
	t := costSweep(seed,
		[]string{"read-frac", "protocol", "txn-msgs/commit", "total-msgs/commit", "mean-latency-ms", "p95-latency-ms"},
		func(r Result) []any {
			return []any{r.TxnMsgsPerCommit, r.MsgsPerCommit, r.MeanLatencyMs, r.P95LatencyMs}
		})
	t.ID, t.Title = "E4", "messages per committed transaction (failure-free)"
	t.Source = "paper §1: fewer accesses than voting; probing is a fixed background cost"
	t.Notes = append(t.Notes,
		"txn-msgs excludes view management (probes/acks/invitations); the gap between the columns is the probe overhead, a fixed rate independent of load",
		"read latency: VP reads one (often local) copy without waiting on a quorum, so its mean commit latency is the lowest at read-heavy mixes")
	return t
}

// ---------------------------------------------------------------------------
// E5 — availability under failures
// ---------------------------------------------------------------------------

// E5 drives the same workload through a randomized fault schedule and
// reports the fraction of submitted transactions that committed.
func E5(seed int64) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "availability under partitions and crashes",
		Source: "paper §1/§2: tolerance of omission and performance failures",
		Header: []string{"mtbf", "protocol", "availability", "ro-availability", "stale-reads", "1SR"},
	}
	for _, mtbf := range []time.Duration{3 * time.Second, time.Second, 400 * msTick} {
		for _, proto := range []Protocol{ProtoVP, ProtoQuorumEager, ProtoMW, ProtoROWA} {
			r := NewRunner(Spec{Protocol: proto, N: 5, Objects: 10, Seed: seed})
			start := r.WarmUp()
			end := start + 8*time.Second
			r.ApplyFaults(workload.FaultPlan(seed+int64(mtbf), r.Topo.Procs(),
				start+time.Second, end-time.Second, mtbf, 400*msTick))
			gen := workload.NewGenerator(seed+7, workload.Objects(10),
				r.Topo.Procs(), workload.Mix{ReadFraction: 0.8}, 0)
			sched := gen.Schedule(start, 20*msTick, 300)
			r.Load(sched)
			r.Cluster.At(end, "final-heal", func() { r.Topo.FullMesh() })
			r.Run(end + 2*time.Second)
			res := r.Stats()
			t.Add(mtbf.String(), string(proto), res.Availability,
				res.ReadOnlyAvailability, res.StaleReads, res.OneCopySR)
		}
	}
	t.Notes = append(t.Notes,
		"missing-writes without partition detection can violate 1SR under partitions (stale minority reads), which is exactly the gap the VP protocol closes",
		"rowa is the availability floor: any unreachable copy blocks every write")
	return t
}

// ---------------------------------------------------------------------------
// E6 — liveness bound
// ---------------------------------------------------------------------------

// E6 measures how long views take to converge after a heal, against the
// paper's bound Delta = pi + 8*delta.
func E6(seed int64) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "view convergence after heal vs liveness bound",
		Source: "paper §5: L1 holds with Delta = pi + 8 delta",
		Header: []string{"delta", "pi", "bound pi+8d", "max observed", "within bound"},
	}
	for _, cfg := range []struct{ delta, pi time.Duration }{
		{msTick, 10 * msTick},
		{2 * msTick, 20 * msTick},
		{2 * msTick, 40 * msTick},
		{5 * msTick, 100 * msTick},
	} {
		bound := cfg.pi + 8*cfg.delta
		var worst time.Duration
		for trial := int64(0); trial < 5; trial++ {
			r := NewRunner(Spec{Protocol: ProtoVP, N: 5, Objects: 2,
				Seed: seed + trial, Delta: cfg.delta, Pi: cfg.pi})
			r.WarmUp()
			splitAt := r.Cluster.Engine.Now() + 50*msTick
			healAt := splitAt + 300*msTick
			r.Cluster.At(splitAt, "split", func() {
				r.Topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3, 4, 5})
			})
			r.Cluster.At(healAt, "heal", func() { r.Topo.FullMesh() })
			want := model.NewProcSet(r.Topo.Procs()...)
			converged := time.Duration(0)
			for at := healAt; at <= healAt+3*bound; at += cfg.delta / 2 {
				at := at
				r.Cluster.At(at, "sample", func() {
					if converged != 0 {
						return
					}
					var id model.VPID
					for i, p := range r.Topo.Procs() {
						nd := r.VPNode(p)
						if !nd.Assigned() || nd.View() != want {
							return
						}
						if i == 0 {
							id = nd.CurID()
						} else if nd.CurID() != id {
							return
						}
					}
					converged = at - healAt
				})
			}
			r.Run(healAt + 4*bound)
			if converged == 0 {
				converged = 4 * bound // never: report off-scale
			}
			if converged > worst {
				worst = converged
			}
		}
		t.Add(cfg.delta.String(), cfg.pi.String(), bound.String(),
			worst.String(), worst <= bound)
	}
	return t
}

// ---------------------------------------------------------------------------
// E7 — staleness vs probe period
// ---------------------------------------------------------------------------

// E7 partitions two processors away from the writers and counts how
// many stale reads they serve before their probes detect the partition,
// for several probe periods — the paper's §4 observation that probing
// bounds the staleness window. The writers detect the cut quickly (their
// first failed write triggers the no-response exception and a new
// partition); the strays keep answering reads from their old view until
// their own probe round fails, reading values that are stale the moment
// the majority's retried write commits.
func E7(seed int64) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "stale reads before partition detection vs probe period",
		Source: "paper §4: probing bounds the staleness window",
		Header: []string{"pi", "stale reads", "detection bound pi+2d", "1SR"},
	}
	const delta = msTick
	for _, pi := range []time.Duration{10 * msTick, 20 * msTick, 40 * msTick, 80 * msTick} {
		r := NewRunner(Spec{Protocol: ProtoVP, N: 5, Objects: 1, Seed: seed,
			Delta: delta, Pi: pi})
		start := r.WarmUp()
		cut := start + 50*msTick
		r.Cluster.At(cut, "split", func() {
			r.Topo.Partition([]model.ProcID{1, 2, 3}, []model.ProcID{4, 5})
		})
		// The majority retries the write until it commits in the new
		// {1,2,3} partition; the strays read continuously.
		tag := uint64(0)
		for at := cut + msTick; at < cut+pi+20*delta; at += 5 * msTick {
			tag++
			r.Submit(at, workload.Txn{Coordinator: 1,
				Request: wire.ClientTxn{Tag: tag, Ops: []wire.Op{wire.WriteOp("o0", 42)}}})
		}
		for at := cut + msTick; at < cut+2*pi+20*delta; at += 2 * msTick {
			tag++
			r.Submit(at, workload.Txn{Coordinator: 4, ReadOnly: true,
				Request: wire.ClientTxn{Tag: tag, Ops: []wire.Op{wire.ReadOp("o0")}}})
		}
		r.Run(cut + 4*pi + time.Second)
		res := r.Stats()
		t.Add(pi.String(), res.StaleReads, (pi + 2*delta).String(), res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"stale reads grow with the probe period but never violate one-copy serializability (the stale readers serialize before the writer)")
	return t
}

// ---------------------------------------------------------------------------
// E8 — previous-partition optimization
// ---------------------------------------------------------------------------

// E8 measures rule R5 refresh traffic with and without the §6
// previous-partition optimization over a crash/heal churn.
func E8(seed int64) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "R5 refresh traffic with/without the previous-partition optimization",
		Source: "paper §6: split-off partitions need no initialization",
		Header: []string{"prev-opt", "refresh reads", "refreshes skipped", "availability", "1SR"},
	}
	for _, opt := range []bool{false, true} {
		r := NewRunner(Spec{Protocol: ProtoVP, N: 5, Objects: 20, Seed: seed, UsePrevOpt: opt})
		start := r.WarmUp()
		// Churn: crash and recover one node repeatedly (each crash makes
		// the surviving four split off; each heal merges).
		at := start
		for i := 0; i < 6; i++ {
			at += 300 * msTick
			crashAt, healAt := at, at+150*msTick
			victim := model.ProcID(i%5 + 1)
			r.Cluster.At(crashAt, "crash", func() { r.Topo.Crash(victim) })
			r.Cluster.At(healAt, "heal", func() { r.Topo.FullMesh() })
		}
		gen := workload.NewGenerator(seed+3, workload.Objects(20),
			r.Topo.Procs(), workload.Mix{ReadFraction: 0.8}, 0)
		sched := gen.Schedule(start, 10*msTick, 300)
		r.Load(sched)
		r.Run(at + 2*time.Second)
		res := r.Stats()
		t.Add(opt, r.Cluster.Reg.Get(metrics.CRefreshReads),
			r.Cluster.Reg.Get(metrics.CRefreshSkips), res.Availability, res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"split-off partitions (crashes) skip refresh entirely with the optimization; merges refresh only the copies the members' write digests cannot clear (the boot's first view refreshes nothing)")
	return t
}

// ---------------------------------------------------------------------------
// E9 — log-based catch-up
// ---------------------------------------------------------------------------

// E9 compares the bytes shipped to re-initialize a rejoining copy by
// full-value refresh vs log-based catch-up, as the number of missed
// writes grows.
func E9(seed int64) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "refresh bytes: full copy vs log-based catch-up",
		Source: "paper §6: apply the missed writes instead of copying the object",
		Header: []string{"missed writes", "mode", "refresh bytes", "catch-up writes", "1SR"},
	}
	for _, missed := range []int{5, 20, 80} {
		for _, logMode := range []bool{false, true} {
			r := NewRunner(Spec{Protocol: ProtoVP, N: 3, Objects: 1, Seed: seed,
				UseLogCatchup: logMode, LogCap: 512})
			start := r.WarmUp()
			cut := start + 50*msTick
			r.Cluster.At(cut, "split", func() {
				r.Topo.Partition([]model.ProcID{1, 2}, []model.ProcID{3})
			})
			var tag uint64
			at := cut + 100*msTick
			for i := 0; i < missed; i++ {
				tag++
				r.Submit(at, workload.Txn{Coordinator: 1,
					Request: wire.ClientTxn{Tag: tag, Ops: wire.IncrementOps("o0", 1)}})
				at += 10 * msTick
			}
			healAt := at + 100*msTick
			r.Cluster.At(healAt, "heal", func() { r.Topo.FullMesh() })
			r.Run(healAt + 2*time.Second)
			mode := "full-copy"
			if logMode {
				mode = "log-catchup"
			}
			t.Add(missed, mode, r.Cluster.Reg.Get(metrics.CRefreshBytes),
				r.Cluster.Reg.Get(metrics.CCatchupWrites), r.Stats().OneCopySR)
		}
	}
	t.Notes = append(t.Notes,
		"object size 4096 bytes, log record 64 bytes (accounting constants); log catch-up wins until the missed-write tail outweighs the object")
	return t
}

// ---------------------------------------------------------------------------
// E10 — weakened R4
// ---------------------------------------------------------------------------

// E10 compares transaction abort rates under strict vs weakened rule R4
// while one unrelated processor crashes and recovers repeatedly.
func E10(seed int64) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "abort rates: strict rule R4 vs §6 weakened R4",
		Source: "paper §6: fewer abortions under two-phase locking",
		Header: []string{"mode", "committed", "aborted", "denied", "availability", "1SR"},
	}
	for _, weak := range []bool{false, true} {
		cat := model.NewCatalog(func() []model.Placement {
			objs := workload.Objects(10)
			pls := make([]model.Placement, len(objs))
			for i, o := range objs {
				// All objects live on processors 1..4; processor 5 is the
				// churning bystander.
				pls[i] = model.Placement{Object: o, Holders: model.NewProcSet(1, 2, 3, 4)}
			}
			return pls
		}()...)
		r := NewRunner(Spec{Protocol: ProtoVP, N: 5, CustomCatalog: cat,
			Seed: seed, WeakR4: weak})
		start := r.WarmUp()
		at := start
		for i := 0; i < 8; i++ {
			at += 250 * msTick
			crashAt, healAt := at, at+120*msTick
			r.Cluster.At(crashAt, "crash", func() { r.Topo.Crash(5) })
			r.Cluster.At(healAt, "heal", func() { r.Topo.FullMesh() })
		}
		// Long transactions (20 operations, ~50ms each) so that many are
		// in flight across each partition change.
		rng := workload.NewGenerator(seed+5, workload.Objects(10),
			[]model.ProcID{1, 2, 3, 4}, workload.Mix{ReadFraction: 0}, 0)
		var tag uint64 = 1
		for i := 0; i < 200; i++ {
			var ops []wire.Op
			for k := 0; k < 10; k++ {
				ops = append(ops, rng.Next().Request.Ops[:2]...)
			}
			tag++
			r.Submit(start+time.Duration(i)*12*msTick, workload.Txn{
				Coordinator: model.ProcID(i%4 + 1),
				Request:     wire.ClientTxn{Tag: tag, Ops: ops},
			})
		}
		r.Run(at + 2*time.Second)
		res := r.Stats()
		mode := "strict-R4"
		if weak {
			mode = "weak-R4"
		}
		t.Add(mode, res.Committed, res.Aborted, res.Denied, res.Availability, res.OneCopySR)
	}
	return t
}

// ---------------------------------------------------------------------------
// E11 — read cost under failures
// ---------------------------------------------------------------------------

// E11 measures physical reads per logical read while a minority of
// processors is crashed — the paper's §1 comparison against the
// missing-writes protocol, which loses read-one exactly when failures
// are present.
func E11(seed int64) *Table {
	t := &Table{
		ID:     "E11",
		Title:  "read cost with a crashed minority: read-one vs missing-writes",
		Source: "paper §1/§7: read-one even in the presence of failures",
		Header: []string{"protocol", "phys-reads/log-read", "availability", "1SR"},
	}
	for _, proto := range []Protocol{ProtoVP, ProtoMW, ProtoQuorumEager} {
		r := NewRunner(Spec{Protocol: proto, N: 5, Objects: 10, Seed: seed})
		start := r.WarmUp()
		crashAt := start + 50*msTick
		r.Cluster.At(crashAt, "crash", func() { r.Topo.Crash(5) })
		// Prime the failure: one write per object so the missing-writes
		// protocol marks the copies.
		at := crashAt + 100*msTick
		var tag uint64 = 1000
		for _, o := range workload.Objects(10) {
			tag++
			r.Submit(at, workload.Txn{Coordinator: 1,
				Request: wire.ClientTxn{Tag: tag, Ops: []wire.Op{wire.WriteOp(o, 1)}}})
			at += 50 * msTick
		}
		r.Run(at + time.Second)
		// Measure a read-heavy phase only.
		readStart := r.Cluster.Engine.Now()
		before := r.Cluster.Reg.Get(metrics.CPhysRead)
		beforeLogical := r.Cluster.Reg.Get(metrics.CLogicalRead)
		gen := workload.NewGenerator(seed+9, workload.Objects(10),
			[]model.ProcID{1, 2, 3, 4}, workload.Mix{ReadFraction: 1}, 0)
		sched := gen.Schedule(readStart, 5*msTick, 300)
		r.Load(sched)
		r.Run(sched[len(sched)-1].At + 2*time.Second)
		res := r.Stats()
		perRead := float64(r.Cluster.Reg.Get(metrics.CPhysRead)-before) /
			float64(r.Cluster.Reg.Get(metrics.CLogicalRead)-beforeLogical)
		t.Add(string(proto), perRead, res.Availability, res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"with one crashed copy the VP protocol still reads one copy; missing-writes pays a majority per read while marks are outstanding; quorum always pays a majority")
	return t
}

// ---------------------------------------------------------------------------
// E12 — randomized fault injection
// ---------------------------------------------------------------------------

// E12 runs randomized fault/workload trials over the VP protocol and
// reports the one-copy serializability verdicts (executable Theorem 1).
func E12(seed int64) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "randomized fault injection: Theorem 1 in practice",
		Source: "paper §4, Theorem 1 and properties S1–S3",
		Header: []string{"trial", "committed", "aborted+denied", "view changes", "1SR"},
	}
	for trial := int64(0); trial < 8; trial++ {
		r := NewRunner(Spec{Protocol: ProtoVP, N: 5, Objects: 5, Seed: seed + trial})
		start := r.WarmUp()
		end := start + 6*time.Second
		r.ApplyFaults(workload.FaultPlan(seed+trial*31, r.Topo.Procs(),
			start, end-time.Second, 600*msTick, 300*msTick))
		gen := workload.NewGenerator(seed+trial*17, workload.Objects(5),
			r.Topo.Procs(), workload.Mix{ReadFraction: 0.6, TransferFraction: 0.3}, 0.8)
		r.Load(gen.Schedule(start, 15*msTick, 250))
		r.Cluster.At(end-time.Second, "final-heal", func() { r.Topo.FullMesh() })
		r.Run(end + time.Second)
		res := r.Stats()
		changes := 0
		for _, p := range r.Topo.Procs() {
			changes += r.VPNode(p).ViewChanges
		}
		ok := res.OneCopySR
		if res.Committed <= 60 {
			ok = ok && onecopy.Check(r.Hist).OK
		}
		t.Add(trial, res.Committed, res.Aborted+res.Denied, changes, ok)
	}
	return t
}

// ---------------------------------------------------------------------------
// E13 — replication factor
// ---------------------------------------------------------------------------

// E13 sweeps the number of copies per object: more copies cost more on
// writes (write-all-in-view) but buy read locality and availability.
// This quantifies the paper's premise that replication is bought for
// availability, with reads kept cheap regardless of the factor.
func E13(seed int64) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "replication factor: cost and availability trade-off",
		Source: "paper §1: replication for availability, reads stay cheap",
		Header: []string{"copies", "phys-reads/log-read", "phys-writes/log-write", "availability (faulty)", "1SR"},
	}
	for _, k := range []int{1, 2, 3, 5, 7} {
		r := NewRunner(Spec{Protocol: ProtoVP, N: 7, Objects: 14, Replication: k, Seed: seed})
		start := r.WarmUp()
		end := start + 6*time.Second
		r.ApplyFaults(workload.FaultPlan(seed+int64(k), r.Topo.Procs(),
			start+500*msTick, end-time.Second, 1500*msTick, 400*msTick))
		gen := workload.NewGenerator(seed+int64(k)*3, workload.Objects(14),
			r.Topo.Procs(), workload.Mix{ReadFraction: 0.8}, 0)
		r.Load(gen.Schedule(start, 10*msTick, 400))
		r.Cluster.At(end, "final-heal", func() { r.Topo.FullMesh() })
		r.Run(end + time.Second)
		res := r.Stats()
		t.Add(k, res.PhysReadsPerLogicalRead, res.PhysWritesPerLogicalWrite,
			res.Availability, res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"reads cost ~1 copy at every factor; writes scale with the factor; availability under the same fault schedule improves with more copies until write-all costs bite",
		"k=1 is unreplicated: any fault touching the single copy's holder denies access")
	return t
}

// ---------------------------------------------------------------------------
// E14 — cluster size scaling
// ---------------------------------------------------------------------------

// E14 scales the processor count at fixed replication (3 copies/object)
// and measures throughput-side costs: per-transaction messages and the
// view-management overhead rate.
func E14(seed int64) *Table {
	t := &Table{
		ID:     "E14",
		Title:  "cluster size: per-transaction and view-management cost",
		Source: "protocol property: probe traffic grows O(n^2), transaction cost stays O(copies)",
		Header: []string{"processors", "txn-msgs/commit", "probe-msgs/sec", "availability", "1SR"},
	}
	for _, n := range []int{3, 5, 9, 15, 25} {
		r := NewRunner(Spec{Protocol: ProtoVP, N: n, Objects: 2 * n, Replication: 3, Seed: seed})
		start := r.WarmUp()
		gen := workload.NewGenerator(seed+int64(n), workload.Objects(2*n),
			r.Topo.Procs(), workload.Mix{ReadFraction: 0.8}, 0)
		sched := gen.Schedule(start, 5*msTick, 500)
		r.Load(sched)
		end := sched[len(sched)-1].At + time.Second
		r.Run(end)
		res := r.Stats()
		probeMsgs := r.Cluster.Reg.Get("net.msg.sent.probe") + r.Cluster.Reg.Get("net.msg.sent.probeack")
		perSec := float64(probeMsgs) / (float64(end) / float64(time.Second))
		t.Add(n, res.TxnMsgsPerCommit, perSec, res.Availability, res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"transaction cost is flat (3 copies regardless of n); the probe mesh is the quadratic term, bounded by the probe period")
	return t
}

// ---------------------------------------------------------------------------
// E15 — message loss tolerance
// ---------------------------------------------------------------------------

// E15 subjects the protocol to uniform message loss (omission failures
// that are not partitions). Lost probes read as failures, so the system
// trades availability for safety as loss grows; 1SR holds throughout.
func E15(seed int64) *Table {
	t := &Table{
		ID:     "E15",
		Title:  "uniform message loss: availability degrades, safety holds",
		Source: "paper §2: tolerance of any number of omission failures",
		Header: []string{"loss", "availability", "view changes", "1SR"},
	}
	for _, loss := range []float64{0, 0.005, 0.02, 0.05, 0.10} {
		r := NewRunner(Spec{Protocol: ProtoVP, N: 3, Objects: 5, Seed: seed})
		start := r.WarmUp()
		r.Cluster.At(start, "lossy", func() { r.Topo.SetDropProb(loss) })
		gen := workload.NewGenerator(seed+int64(loss*1000), workload.Objects(5),
			r.Topo.Procs(), workload.Mix{ReadFraction: 0.8}, 0)
		sched := gen.Schedule(start, 20*msTick, 300)
		r.Load(sched)
		end := sched[len(sched)-1].At
		r.Cluster.At(end, "clean", func() { r.Topo.SetDropProb(0) })
		r.Run(end + 2*time.Second)
		res := r.Stats()
		changes := 0
		for _, p := range r.Topo.Procs() {
			changes += r.VPNode(p).ViewChanges
		}
		t.Add(fmt.Sprintf("%.1f%%", loss*100), res.Availability, changes, res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"every lost probe or acknowledgement is a detected omission failure and churns the views — the protocol prefers refusing work over serving it wrongly")
	return t
}

// ---------------------------------------------------------------------------
// E16 — §7 integration: mergeable counters
// ---------------------------------------------------------------------------

// E16 compares strict virtual partitions against the §7 [BGRCK]-style
// mergeable-counter mode under partition churn: the mergeable mode keeps
// minority partitions writing (higher availability) and reconciles
// per-writer deltas at merge so no increment is lost — at the price of
// cross-partition one-copy serializability.
func E16(seed int64) *Table {
	t := &Table{
		ID:     "E16",
		Title:  "strict VP vs mergeable counters under partition churn",
		Source: "paper §7: partition-mode schemes over the VP management subprotocol",
		Header: []string{"mode", "availability", "committed", "final value", "lost updates", "1SR"},
	}
	for _, mergeable := range []bool{false, true} {
		r := NewRunner(Spec{Protocol: ProtoVP, N: 5, Objects: 1, Seed: seed,
			Mergeable: mergeable})
		start := r.WarmUp()
		end := start + 6*time.Second
		r.ApplyFaults(workload.FaultPlan(seed+11, r.Topo.Procs(),
			start+200*msTick, end-time.Second, 700*msTick, 500*msTick))
		// Increment-only workload from every processor.
		var tag uint64
		for at := start; at < end-1500*msTick; at += 25 * msTick {
			tag++
			r.Submit(at, workload.Txn{
				Coordinator: model.ProcID(int(tag)%5 + 1),
				Request:     wire.ClientTxn{Tag: tag, Ops: wire.IncrementOps("o0", 1)},
			})
		}
		r.Cluster.At(end-time.Second, "final-heal", func() { r.Topo.FullMesh() })
		r.Run(end + time.Second)
		res := r.Stats()
		final := r.VPNode(1).Store.Get("o0").Val
		lost := int64(res.Committed) - int64(final)
		mode := "strict (R1 majority)"
		if mergeable {
			mode = "mergeable (any copy)"
		}
		t.Add(mode, res.Availability, res.Committed, int64(final), lost, res.OneCopySR)
	}
	t.Notes = append(t.Notes,
		"mergeable mode accepts increments in every partition and still loses none (per-writer component reconciliation at merge); strict mode refuses minority work to preserve 1SR",
		"the 1SR column is expected to read 'no' for the mergeable mode: that is the documented trade of [BGRCK]/[D]-style optimism")
	return t
}
