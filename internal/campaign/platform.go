package campaign

import (
	"fmt"
	"time"

	"github.com/virtualpartitions/vp/internal/nemesis"
	"github.com/virtualpartitions/vp/internal/onecopy"
	"github.com/virtualpartitions/vp/internal/shard"
	"github.com/virtualpartitions/vp/internal/trace"
	"github.com/virtualpartitions/vp/internal/wire"
	"github.com/virtualpartitions/vp/internal/workload"
)

// Platform is the adapter every backend implements. The engine owns the
// experiment's shape — it precomputes the whole Plan (load, faults,
// probes, horizon) before Start — and the platform owns execution, so
// the same declarative cell runs on virtual time (sim) and wall clock
// (inproc) without the engine branching on the backend. A new backend
// plugs in here and inherits the conformance suite.
//
// Lifecycle: Start → Drive → Scrape → Stop. Start on a started platform
// is an error; Stop is idempotent; a stopped platform may Start again
// with a fresh cluster. Scrape is valid between Drive and Stop.
type Platform interface {
	// Name echoes the backend name (sim | inproc).
	Name() string
	// Deterministic reports whether two runs of the same ClusterConfig
	// and Plan produce byte-identical Snapshots. Only such cells may run
	// in parallel with digest comparison.
	Deterministic() bool
	Start(cfg ClusterConfig) error
	// Drive executes the plan to its End: submits every scheduled
	// transaction and probe, and walks the fault schedule. It returns
	// after the horizon (virtual for sim, wall clock otherwise).
	Drive(plan Plan) error
	// Scrape collects the run's observable state for gating.
	Scrape() (*Snapshot, error)
	Stop() error
}

// ClusterConfig is the per-cell cluster shape handed to Start.
type ClusterConfig struct {
	N       int
	Objects int
	Seed    int64
	// Delta is the assumed message-delay bound δ; the probe period is
	// the protocol default π = 20δ.
	Delta time.Duration
	// Shards, when set, runs the cluster sharded (inproc only): every
	// node is a shard.Router over this map, the cell's Plan.Shards, each
	// hosted shard with its own virtual-partition lifecycle.
	Shards *shard.Map
}

// Plan is the engine's precomputed experiment: all times are offsets
// from the cluster's (virtual or wall-clock) start.
type Plan struct {
	// Txns is the workload, already expanded to scheduled transactions.
	Txns []workload.ScheduledTxn
	// Faults is the nemesis schedule, confined to the fault window.
	Faults nemesis.Schedule
	// Probes are the post-heal liveness writes (reserved tags); at least
	// one must commit for the liveness gate.
	Probes []workload.ScheduledTxn
	// End is the horizon: Drive returns once it is reached.
	End time.Duration
	// Shards is a sharded cell's placement map, nil unsharded. The plan's
	// shard probes and fault target come from it, and the platform runs
	// its cluster over it (ClusterConfig.Shards).
	Shards *shard.Map
}

// Snapshot is everything the gates and metrics read. Platforms populate
// it from their registries, recorders and histories; for deterministic
// backends its Digest must be byte-stable across runs.
type Snapshot struct {
	// Counters is a copy of the metrics registry's counter map.
	Counters map[string]int64
	// Events is the structured trace, replayed for S1–S3/R2/R3.
	Events []trace.Event
	// Hist is the committed-operations history, checked for 1SR.
	Hist *onecopy.History
	// Results maps every observed client-result tag to its outcome
	// (including probe tags).
	Results map[uint64]wire.ClientResult
	// Latency is the commit latency per committed tag, measured from the
	// transaction's scheduled submission time.
	Latency map[uint64]time.Duration
}

// NewPlatform builds the adapter for a backend name.
func NewPlatform(backend string) (Platform, error) {
	switch backend {
	case BackendSim:
		return &simPlatform{}, nil
	case BackendInproc:
		return &inprocPlatform{}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown backend %q", backend)
	}
}
