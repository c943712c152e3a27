package nemesis

import (
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
)

// Apply installs one schedule step's network state on topo, the fault
// state of either backend: the simulator delivers by it, and a live
// cluster has it installed as every node's interceptor. It reports
// whether the step was a network step; crash, kill9 and restart are not
// (ApplyToSim isolates and reconnects the victim, a live harness stops
// the node and boots it again from its journal).
//
//   - partition       → Topology.Partition(groups...)
//   - isolate-one     → Partition(everyone else | victim)
//   - shard-partition → PartitionShard(shard, groups...)
//   - heal            → Heal
//   - drop-prob       → SetDropProb(prob)
//   - delay           → Slow(delay)
//   - duplicate       → SetDupProb(prob)
func Apply(topo *net.Topology, st Step) bool {
	switch st.Kind {
	case StepPartition:
		topo.Partition(st.Groups...)
	case StepIsolateOne:
		var rest []model.ProcID
		for _, p := range topo.Procs() {
			if p != st.Victim {
				rest = append(rest, p)
			}
		}
		topo.Partition(rest, []model.ProcID{st.Victim})
	case StepShardPartition:
		topo.PartitionShard(st.Shard, st.Groups...)
	case StepHeal:
		topo.Heal()
	case StepDropProb:
		topo.SetDropProb(st.Prob)
	case StepDelay:
		topo.Slow(st.Delay)
	case StepDuplicate:
		topo.SetDupProb(st.Prob)
	default:
		return false
	}
	return true
}

// ApplyToSim schedules every step of s onto the deterministic sim
// engine at the step's virtual time: the network steps through Apply,
// and a crash or kill9 as Topology.Crash (the sim has no process to kill
// and no disk to fail; an isolated processor is the paper's model of a
// crashed one), a restart as Topology.Recover. Because the engine is
// single-threaded virtual time, the resulting run is byte-deterministic
// for a fixed (schedule, seed) pair. The simulator reads neither the
// duplicate probability nor a shard cut, so those steps change no
// simulated delivery.
func ApplyToSim(c *net.SimCluster, topo *net.Topology, s Schedule) {
	for _, st := range s.Steps {
		c.At(st.At, "nemesis:"+string(st.Kind), func() {
			switch {
			case Apply(topo, st):
			case st.Kind == StepRestart:
				topo.Recover(st.Victim)
			default:
				topo.Crash(st.Victim)
			}
		})
	}
}
