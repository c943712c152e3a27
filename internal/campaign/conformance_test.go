package campaign

import (
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/metrics"
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// conformancePlan is a minimal but complete plan: a little load, one
// partition/heal pair plus a crash/restart pair (so every adapter walks
// both the interceptor path and the topology/process path), and one
// probe. Times are wall-clock milliseconds on the real-time backends, so
// the whole plan stays under a second.
func conformancePlan(n, objects int) Plan {
	procs := make([]model.ProcID, n)
	for i := range procs {
		procs[i] = model.ProcID(i + 1)
	}
	gen := workload.NewGenerator(11, workload.Objects(objects), procs, workload.Mix{ReadFraction: 0.5}, 0)
	var txns []workload.ScheduledTxn
	for i := 0; i < 20; i++ {
		txns = append(txns, workload.ScheduledTxn{
			At:  100*time.Millisecond + time.Duration(i)*20*time.Millisecond,
			Txn: gen.Next(),
		})
	}
	victim := procs[n-1]
	faults := nemesis.Schedule{
		Steps: []nemesis.Step{
			{At: 150 * time.Millisecond, Kind: nemesis.StepPartition,
				Groups: [][]model.ProcID{procs[:n-1], {victim}}},
			{At: 300 * time.Millisecond, Kind: nemesis.StepHeal},
			{At: 350 * time.Millisecond, Kind: nemesis.StepCrash, Victim: victim},
			{At: 500 * time.Millisecond, Kind: nemesis.StepRestart, Victim: victim},
		},
		End: 500 * time.Millisecond,
	}
	probes := []workload.ScheduledTxn{{
		At: 600 * time.Millisecond,
		Txn: workload.Txn{
			Coordinator: procs[0],
			Request:     wire.ClientTxn{Tag: probeTagBase, Ops: wire.IncrementOps(workload.Objects(1)[0], 1)},
		},
	}}
	return Plan{Txns: txns, Faults: faults, Probes: probes, End: 800 * time.Millisecond}
}

// TestPlatformConformance holds every Platform implementation to the
// same adapter contract, so a new backend inherits the lifecycle rules
// by adding one table row.
func TestPlatformConformance(t *testing.T) {
	backends := []string{BackendSim, BackendInproc}
	for _, backend := range backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			p, err := NewPlatform(backend)
			if err != nil {
				t.Fatalf("NewPlatform: %v", err)
			}
			if p.Name() != backend {
				t.Fatalf("Name() = %q, want %q", p.Name(), backend)
			}
			if det := p.Deterministic(); det != (backend == BackendSim) {
				t.Fatalf("Deterministic() = %v for %s", det, backend)
			}

			// Lifecycle ordering: Drive and Scrape before Start are errors.
			if err := p.Drive(Plan{End: time.Millisecond}); err == nil {
				t.Fatal("Drive before Start succeeded")
			}
			if _, err := p.Scrape(); err == nil {
				t.Fatal("Scrape before Start succeeded")
			}
			// Stop before Start is a harmless no-op.
			if err := p.Stop(); err != nil {
				t.Fatalf("Stop before Start: %v", err)
			}

			cfg := ClusterConfig{N: 3, Objects: 2, Seed: 11, Delta: defaultDelta(backend)}
			if err := p.Start(cfg); err != nil {
				t.Fatalf("Start: %v", err)
			}
			// Double Start must be refused, not stack a second cluster.
			if err := p.Start(cfg); err == nil {
				t.Fatal("second Start succeeded")
			}

			// Nemesis attach/detach: the plan carries a partition/heal and
			// a crash/restart; Drive must walk all of them without error.
			if err := p.Drive(conformancePlan(3, 2)); err != nil {
				t.Fatalf("Drive: %v", err)
			}

			snap, err := p.Scrape()
			if err != nil {
				t.Fatalf("Scrape: %v", err)
			}
			checkSnapshotShape(t, backend, snap)

			// Stop is idempotent.
			if err := p.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
			if err := p.Stop(); err != nil {
				t.Fatalf("second Stop: %v", err)
			}

			// A stopped platform restarts with a fresh cluster.
			if err := p.Start(cfg); err != nil {
				t.Fatalf("Start after Stop: %v", err)
			}
			if err := p.Stop(); err != nil {
				t.Fatalf("Stop after restart: %v", err)
			}
		})
	}
}

// checkSnapshotShape asserts the scrape contract every gate depends on.
func checkSnapshotShape(t *testing.T, backend string, snap *Snapshot) {
	t.Helper()
	if snap.Counters == nil || snap.Results == nil || snap.Latency == nil || snap.Hist == nil {
		t.Fatalf("%s: snapshot has nil fields: %+v", backend, snap)
	}
	if snap.Counters[metrics.CMsgSent] == 0 {
		t.Errorf("%s: no %s counter; scrape is not wired to the registry", backend, metrics.CMsgSent)
	}
	placements := 0
	for _, e := range snap.Events {
		if e.Kind == trace.EvPlacement {
			placements++
		}
	}
	if placements == 0 {
		t.Errorf("%s: no EvPlacement events; R2/R3 replay would be skipped", backend)
	}
	if len(snap.Results) == 0 {
		t.Errorf("%s: no client results observed", backend)
	}
}
