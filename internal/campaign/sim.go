package campaign

import (
	"fmt"

	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/trace"
)

// simPlatform runs a cell on the deterministic virtual-time simulation
// via the bench harness. It is the only Deterministic backend: given the
// same ClusterConfig and Plan, two runs produce byte-identical
// Snapshots, which the determinism gate and the -parallel digest
// comparison rely on. Like every simulated cluster it carries each
// remote message through the wire codec, so a codec bug that corrupts a
// field breaks invariants here too, and one the codec refuses panics.
type simPlatform struct {
	r       *bench.Runner
	rec     *trace.Recorder
	started bool
}

func (p *simPlatform) Name() string        { return BackendSim }
func (p *simPlatform) Deterministic() bool { return true }

func (p *simPlatform) Start(cfg ClusterConfig) error {
	if p.started {
		return fmt.Errorf("campaign/sim: Start on a started platform")
	}
	p.r = bench.NewRunner(bench.Spec{
		Protocol: bench.ProtoVP,
		N:        cfg.N,
		Objects:  cfg.Objects,
		Seed:     cfg.Seed,
		Delta:    cfg.Delta,
	})
	p.rec = p.r.EnableTrace(1 << 18)
	p.started = true
	return nil
}

func (p *simPlatform) Drive(plan Plan) error {
	if !p.started {
		return fmt.Errorf("campaign/sim: Drive before Start")
	}
	nemesis.ApplyToSim(p.r.Cluster, p.r.Topo, plan.Faults)
	p.r.Load(plan.Txns)
	p.r.Load(plan.Probes)
	p.r.Run(plan.End)
	return nil
}

func (p *simPlatform) Scrape() (*Snapshot, error) {
	if !p.started {
		return nil, fmt.Errorf("campaign/sim: Scrape before Start")
	}
	return &Snapshot{
		Counters: p.r.Cluster.Reg.Counters(),
		Events:   p.rec.Events(),
		Hist:     p.r.Hist,
		Results:  p.r.Results(),
		Latency:  p.r.Latencies(),
	}, nil
}

func (p *simPlatform) Stop() error {
	// The simulation has no goroutines or sockets: dropping the runner
	// is the teardown. Idempotent by construction.
	p.started = false
	p.r, p.rec = nil, nil
	return nil
}
