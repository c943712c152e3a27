package campaign

import (
	"fmt"

	"github.com/virtualpartitions/vp/internal/bench"
	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
)

// simPlatform runs a cell on the deterministic virtual-time simulation
// via the bench harness. It is the only Deterministic backend: given the
// same ClusterConfig and Plan, two runs produce byte-identical
// Snapshots, which the determinism gate and the -parallel digest
// comparison rely on.
//
// Every delivered remote message goes through an encode/decode
// round-trip of the wire codec (the SimCluster.Transcode hook), so a
// codec bug that corrupts a field breaks invariants here too, not only
// over real sockets.
type simPlatform struct {
	r        *bench.Runner
	rec      *trace.Recorder
	started  bool
	codecErr error
}

func (p *simPlatform) Name() string        { return BackendSim }
func (p *simPlatform) Deterministic() bool { return true }

func (p *simPlatform) Start(cfg ClusterConfig) error {
	if p.started {
		return fmt.Errorf("campaign/sim: Start on a started platform")
	}
	p.codecErr = nil
	p.r = bench.NewRunner(bench.Spec{
		Protocol: bench.ProtoVP,
		N:        cfg.N,
		Objects:  cfg.Objects,
		Seed:     cfg.Seed,
		Delta:    cfg.Delta,
	})
	p.rec = p.r.EnableTrace(1 << 18)
	var enc wire.FrameEncoder
	dec := wire.NewDecoder()
	p.r.Cluster.Transcode = func(env wire.Envelope) wire.Envelope {
		frame, err := enc.EncodeFrame(&env)
		if err != nil {
			p.noteCodecErr(fmt.Errorf("encode %T: %w", env.Msg, err))
			return env
		}
		out, err := dec.Decode(frame[wire.FrameHeaderLen:])
		if err != nil {
			p.noteCodecErr(fmt.Errorf("decode %T: %w", env.Msg, err))
			return env
		}
		return out
	}
	p.started = true
	return nil
}

func (p *simPlatform) noteCodecErr(err error) {
	if p.codecErr == nil {
		p.codecErr = err
	}
}

func (p *simPlatform) Drive(plan Plan) error {
	if !p.started {
		return fmt.Errorf("campaign/sim: Drive before Start")
	}
	nemesis.ApplyToSim(p.r.Cluster, p.r.Topo, plan.Faults)
	p.r.Load(plan.Txns)
	p.r.Load(plan.Probes)
	p.r.Run(plan.End)
	return p.codecErr
}

func (p *simPlatform) Scrape() (*Snapshot, error) {
	if !p.started {
		return nil, fmt.Errorf("campaign/sim: Scrape before Start")
	}
	if p.codecErr != nil {
		return nil, p.codecErr
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
