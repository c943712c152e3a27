package nemesis

import (
	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
)

// ApplyToSim schedules every step of s onto the deterministic sim
// engine as Topology mutations at the step's virtual time. Because the
// engine is single-threaded virtual time, the resulting run is
// byte-deterministic for a fixed (schedule, seed) pair.
//
// Step translation:
//
//   - partition    → Topology.Partition(groups...)
//   - isolate-one  → Partition(victim | everyone else)
//   - heal         → FullMesh + drop prob 0 + latency overrides cleared
//   - crash, kill9 → Topology.Crash (the sim has no process to kill and
//     no disk to fail; an isolated processor is the paper's model of a
//     crashed one. Live backends stop the node and restart it from its
//     journal instead.)
//   - restart      → Topology.Recover
//   - drop-prob    → SetDropProb(prob)
//   - delay        → SlowAll(base + delay)
//   - duplicate    → no-op: the sim delivery path has no duplicate hook,
//     and simulated determinism is the point of this backend. Live
//     backends do duplicate.
func ApplyToSim(c *net.SimCluster, topo *net.Topology, s Schedule) {
	for _, st := range s.Steps {
		st := st
		c.At(st.At, "nemesis:"+string(st.Kind), func() { applySimStep(topo, st) })
	}
}

func applySimStep(topo *net.Topology, st Step) {
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
	case StepHeal:
		topo.FullMesh()
		topo.SetDropProb(0)
		topo.ResetLatencies()
	case StepCrash, StepKill:
		topo.Crash(st.Victim)
	case StepRestart:
		topo.Recover(st.Victim)
	case StepDropProb:
		topo.SetDropProb(st.Prob)
	case StepDelay:
		topo.SlowAll(topo.BaseLatency() + st.Delay)
	case StepDuplicate:
		// No duplicate path in the sim engine; see the function comment.
	}
}
