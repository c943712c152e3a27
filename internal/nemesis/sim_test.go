package nemesis_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// simDigest runs one simulated VP cluster under a nemesis schedule and
// returns a byte-exact digest of everything observable: the committed
// history, the counters, and the full JSONL trace.
func simDigest(t *testing.T, seed int64) string {
	t.Helper()
	spec := bench.Spec{Protocol: bench.ProtoVP, N: 5, Objects: 8, Seed: seed,
		Delta: 2 * time.Millisecond}
	r := bench.NewRunner(spec)
	rec := r.EnableTrace(0)
	warm := r.WarmUp()

	sched := nemesis.Generate(seed, nemesis.Options{
		Procs:    r.Topo.Procs(),
		Start:    warm,
		MeanHold: 120 * time.Millisecond,
		MeanGap:  120 * time.Millisecond,
		Flaky:    true,
	})
	nemesis.ApplyToSim(r.Cluster, r.Topo, sched)

	gen := workload.NewGenerator(seed+1, workload.Objects(8), r.Topo.Procs(),
		workload.Mix{ReadFraction: 0.5}, 0)
	r.Load(gen.Schedule(warm, 10*time.Millisecond, 150))
	r.Run(sched.End + time.Second)

	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return r.Hist.String() + "\n---\n" + r.Cluster.Reg.String() + "\n---\n" + jsonl.String()
}

// TestSimScheduleByteDeterministic: the same seed must replay the same
// schedule to the same bytes — history, metrics and trace all identical.
func TestSimScheduleByteDeterministic(t *testing.T) {
	a := simDigest(t, 99)
	b := simDigest(t, 99)
	if a != b {
		t.Fatalf("same seed produced different runs:\nlen %d vs %d", len(a), len(b))
	}
}

// TestSimScheduleRecovers: after the schedule's final heal the cluster
// commits again and the history stays 1SR (the acceptance bar the chaos
// campaign holds live clusters to, checked here on the deterministic
// backend).
func TestSimScheduleRecovers(t *testing.T) {
	spec := bench.Spec{Protocol: bench.ProtoVP, N: 5, Objects: 8, Seed: 3,
		Delta: 2 * time.Millisecond}
	r := bench.NewRunner(spec)
	warm := r.WarmUp()
	sched := nemesis.Generate(3, nemesis.Options{
		Procs:    r.Topo.Procs(),
		Start:    warm,
		MeanHold: 120 * time.Millisecond,
		MeanGap:  120 * time.Millisecond,
	})
	nemesis.ApplyToSim(r.Cluster, r.Topo, sched)

	gen := workload.NewGenerator(4, workload.Objects(8), r.Topo.Procs(),
		workload.Mix{ReadFraction: 0.5}, 0)
	r.Load(gen.Schedule(warm, 10*time.Millisecond, 100))
	// One write submitted well after the final heal must commit.
	liveness := workload.Txn{Coordinator: 1,
		Request: wire.ClientTxn{Tag: 1 << 40, Ops: wire.IncrementOps("o0", 1)}}
	r.Submit(sched.End+500*time.Millisecond, liveness)
	r.Run(sched.End + time.Second)

	if res := r.ResultFor(1 << 40); !res.Committed {
		t.Fatalf("post-heal transaction did not commit: %+v", res)
	}
	if stats := r.Stats(); !stats.OneCopySR {
		t.Fatal("history under nemesis schedule is not 1SR")
	}
}
