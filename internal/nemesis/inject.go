package nemesis

import (
	"math/rand"
	"sync"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

// Injector applies a schedule's network steps to a live cluster: it
// implements net.Interceptor, so installing one on every TCP node routes
// each remote send through the current fault state.
// Crash, kill and restart steps are not network faults — Apply returns
// false for them and the harness stops/restarts the actual node.
//
// Concurrency: Outbound is called from many node goroutines while Apply
// is called from the nemesis driver; one mutex serializes both.
type Injector struct {
	mu sync.Mutex
	// group maps each processor to its partition group; empty = no
	// partition. Cross-group (or unmapped) pairs cannot communicate.
	group map[model.ProcID]int
	// shardGroup holds per-shard partitions: for each faulted shard, the
	// processor → group map that applies to that shard's frames only.
	shardGroup map[model.ShardID]map[model.ProcID]int
	// isolated, when not NoProc, cuts exactly that processor off from
	// everyone else (isolate-one).
	isolated model.ProcID
	dropProb float64
	delay    time.Duration
	dupProb  float64
	rng      *rand.Rand
}

// NewInjector returns a fault-free injector whose probabilistic faults
// (drop-prob, duplicate) draw from the given seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		group:      make(map[model.ProcID]int),
		shardGroup: make(map[model.ShardID]map[model.ProcID]int),
		isolated:   model.NoProc,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Outbound implements net.Interceptor. Shard-scoped partitions look at
// the frame: a wire.ShardMsg's kind string does not name the shard.
// Epoch-cache probes (ShardEpochReq/Resp) name their shard too and are
// subject to the same cut: a partitioned shard's epoch is as unreachable
// as its data.
func (in *Injector) Outbound(from, to model.ProcID, m wire.Message) net.Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.shardGroup) > 0 {
		s := model.NoShard
		switch msg := m.(type) {
		case wire.ShardMsg:
			s = msg.Shard
		case wire.ShardEpochReq:
			s = msg.Shard
		case wire.ShardEpochResp:
			s = msg.Shard
		}
		if g := in.shardGroup[s]; g != nil {
			ga, oka := g[from]
			gb, okb := g[to]
			if !oka || !okb || ga != gb {
				return net.Verdict{Drop: true}
			}
		}
	}
	if in.isolated != model.NoProc && (from == in.isolated) != (to == in.isolated) {
		return net.Verdict{Drop: true}
	}
	if len(in.group) > 0 {
		ga, oka := in.group[from]
		gb, okb := in.group[to]
		if !oka || !okb || ga != gb {
			return net.Verdict{Drop: true}
		}
	}
	if in.dropProb > 0 && in.rng.Float64() < in.dropProb {
		return net.Verdict{Drop: true}
	}
	v := net.Verdict{Delay: in.delay}
	if in.dupProb > 0 && in.rng.Float64() < in.dupProb {
		v.Duplicate = true
	}
	return v
}

// Apply installs one schedule step's network state. It returns true if
// the step was handled here; false for crash/kill/restart, which the
// harness must realize by stopping or restarting the node itself (the
// injector intentionally does NOT isolate crash victims: a stopped
// process needs no help being silent, and a restarted one must be
// reachable at once).
func (in *Injector) Apply(s Step) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	switch s.Kind {
	case StepPartition:
		in.group = make(map[model.ProcID]int)
		for gi, g := range s.Groups {
			for _, p := range g {
				in.group[p] = gi + 1
			}
		}
	case StepShardPartition:
		g := make(map[model.ProcID]int)
		for gi, grp := range s.Groups {
			for _, p := range grp {
				g[p] = gi + 1
			}
		}
		in.shardGroup[s.Shard] = g
	case StepIsolateOne:
		in.isolated = s.Victim
	case StepHeal:
		in.group = make(map[model.ProcID]int)
		in.shardGroup = make(map[model.ShardID]map[model.ProcID]int)
		in.isolated = model.NoProc
		in.dropProb, in.delay, in.dupProb = 0, 0, 0
	case StepDropProb:
		in.dropProb = s.Prob
	case StepDelay:
		in.delay = s.Delay
	case StepDuplicate:
		in.dupProb = s.Prob
	case StepCrash, StepKill, StepRestart:
		return false
	}
	return true
}
