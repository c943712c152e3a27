// Package nemesis is the fault-schedule engine: a declarative, seeded
// description of when the network partitions, heals, loses or delays
// messages, and which processors crash and restart — the full failure
// model of the paper (§2): omission failures (partitions, crashes, lost
// messages) and performance failures (late messages), with duplicate
// delivery thrown in because retransmitting protocols must tolerate it
// anyway.
//
// A Schedule is backend-agnostic, and so is its network state: one
// function, Apply, turns every network step into a change of a
// net.Topology, the paper's can-communicate relation (§3). The
// deterministic sim engine delivers by that topology, with the steps
// scheduled at virtual times (ApplyToSim). A live TCP cluster has it
// installed as every node's interceptor (Topology.Outbound), and its
// harness handles crash, kill and restart by stopping nodes and booting
// them again from their journals.
//
// Generate builds a randomized schedule from a seed; the same seed always
// yields the same schedule, so a failing chaos run is reproducible by
// quoting one integer.
package nemesis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
)

// StepKind names one fault (or repair) type.
type StepKind string

// The step vocabulary. Partition/crash/drop are omission failures; delay
// is a performance failure; duplicate exercises retransmission paths;
// heal and restart are the repairs that close an episode.
const (
	// StepPartition splits the processors into Step.Groups; cross-group
	// messages are lost. Processors in no group are isolated.
	StepPartition StepKind = "partition"
	// StepHeal restores a fault-free network: partitions removed, drop
	// probability, delay and duplication cleared. Crashed processors are
	// NOT restarted (that is StepRestart's job).
	StepHeal StepKind = "heal"
	// StepCrash stops processor Step.Victim. On the sim backend this
	// isolates it; on live backends the harness stops the process.
	StepCrash StepKind = "crash"
	// StepKill stops Step.Victim as kill -9 does, under a failing disk:
	// on live backends the harness fails its fsyncs, tears its next write
	// and freezes its disk around the kill, then loses what no fsync
	// covered. Generate never emits it; a profile turns crash steps into
	// kills. On the sim backend it is a crash.
	StepKill StepKind = "kill9"
	// StepRestart brings Step.Victim back after a crash or a kill (on
	// live backends: restarted from its journal, exercising the recovery
	// path of §5.2).
	StepRestart StepKind = "restart"
	// StepDropProb makes every link lose messages with Step.Prob.
	StepDropProb StepKind = "drop-prob"
	// StepDelay adds Step.Delay to every message: every link's latency
	// becomes base+Delay.
	StepDelay StepKind = "delay"
	// StepDuplicate delivers messages twice with Step.Prob. The sim
	// engine has no duplicate path, so only live backends duplicate.
	StepDuplicate StepKind = "duplicate"
	// StepIsolateOne partitions Step.Victim away from everyone else
	// while the rest stay connected (the paper's Example 2 shape).
	StepIsolateOne StepKind = "isolate-one"
	// StepShardPartition splits only Step.Shard's traffic into
	// Step.Groups: cross-group messages carrying that shard's frames are
	// lost while every other shard's traffic flows normally. This is the
	// sharded deployment's signature fault — one shard's weighted
	// majority splits, the rest of the cluster must not notice. Only
	// live backends realize it (Topology.Outbound inspects the frames);
	// the sim engine does not look at a shard cut.
	StepShardPartition StepKind = "shard-partition"
)

// Step is one scheduled fault action.
type Step struct {
	// At is when the step fires, relative to schedule start (virtual
	// time under sim, wall time on live backends).
	At time.Duration
	// Kind selects the action; the remaining fields are per-kind.
	Kind StepKind
	// Groups is the partition layout for StepPartition.
	Groups [][]model.ProcID
	// Victim is the processor for crash/restart/isolate-one.
	Victim model.ProcID
	// Prob is the loss probability (drop-prob) or duplication
	// probability (duplicate).
	Prob float64
	// Delay is the added message delay for StepDelay.
	Delay time.Duration
	// Shard scopes StepShardPartition to one shard's traffic.
	Shard model.ShardID
}

func (s Step) String() string {
	switch s.Kind {
	case StepPartition, StepShardPartition:
		parts := make([]string, len(s.Groups))
		for i, g := range s.Groups {
			ids := make([]string, len(g))
			for j, p := range g {
				ids[j] = fmt.Sprint(p)
			}
			parts[i] = "{" + strings.Join(ids, ",") + "}"
		}
		scope := ""
		if s.Kind == StepShardPartition {
			scope = fmt.Sprintf("shard %v ", s.Shard)
		}
		return fmt.Sprintf("%8s %-12s %s%s", s.At.Round(time.Millisecond), s.Kind, scope, strings.Join(parts, " "))
	case StepCrash, StepKill, StepRestart, StepIsolateOne:
		return fmt.Sprintf("%8s %-12s p%d", s.At.Round(time.Millisecond), s.Kind, s.Victim)
	case StepDropProb, StepDuplicate:
		return fmt.Sprintf("%8s %-12s %.2f", s.At.Round(time.Millisecond), s.Kind, s.Prob)
	case StepDelay:
		return fmt.Sprintf("%8s %-12s %s", s.At.Round(time.Millisecond), s.Kind, s.Delay)
	default:
		return fmt.Sprintf("%8s %-12s", s.At.Round(time.Millisecond), s.Kind)
	}
}

// Schedule is an ordered fault plan plus the time by which the network is
// fault-free again (every schedule Generate builds ends with a heal and
// the restart of every crashed processor).
type Schedule struct {
	Steps []Step
	// End is the time of the last step; from End on, the network is
	// healthy and liveness assertions may be made (the paper's Δ bound
	// starts counting here).
	End time.Duration
}

// Counts tallies the schedule by step kind.
func (s Schedule) Counts() map[StepKind]int {
	out := make(map[StepKind]int)
	for _, st := range s.Steps {
		out[st.Kind]++
	}
	return out
}

func (s Schedule) String() string {
	var b strings.Builder
	for _, st := range s.Steps {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Options shapes Generate's output.
type Options struct {
	// Procs is the processor population (required, ≥ 2).
	Procs []model.ProcID
	// Start is when the first fault may fire (leave warm-up undisturbed).
	Start time.Duration
	// MeanHold is how long a fault episode lasts on average (default
	// 500ms). Actual holds are uniform in [MeanHold/2, 3·MeanHold/2].
	MeanHold time.Duration
	// MeanGap is the average fault-free gap between episodes (default
	// MeanHold); same distribution as holds.
	MeanGap time.Duration
	// MinPartitions is the minimum number of partition-type episodes
	// (partition or isolate-one), each closed by a heal (default 3).
	MinPartitions int
	// MinCrashes is the minimum number of crash episodes, each closed by
	// a restart (default 2).
	MinCrashes int
	// Flaky adds drop-prob / delay / duplicate episodes into the mix
	// (each closed by a heal).
	Flaky bool
}

func (o Options) withDefaults() Options {
	if o.MeanHold <= 0 {
		o.MeanHold = 500 * time.Millisecond
	}
	if o.MeanGap <= 0 {
		o.MeanGap = o.MeanHold
	}
	if o.MinPartitions <= 0 {
		o.MinPartitions = 3
	}
	if o.MinCrashes <= 0 {
		o.MinCrashes = 2
	}
	return o
}

// Generate builds a deterministic fault schedule from a seed: a shuffled
// sequence of non-overlapping episodes (fault, hold, repair), honoring
// the minimum partition and crash counts, always ending fault-free. The
// same (seed, opts) pair yields the same schedule.
func Generate(seed int64, opts Options) Schedule {
	o := opts.withDefaults()
	if len(o.Procs) < 2 {
		panic("nemesis: need at least two processors")
	}
	rng := rand.New(rand.NewSource(seed))

	// Decide the episode mix, then shuffle it so seeds vary the order.
	type episode struct{ kind StepKind }
	var eps []episode
	for i := 0; i < o.MinPartitions; i++ {
		k := StepPartition
		if rng.Intn(3) == 0 {
			k = StepIsolateOne
		}
		eps = append(eps, episode{k})
	}
	for i := 0; i < o.MinCrashes; i++ {
		eps = append(eps, episode{StepCrash})
	}
	if o.Flaky {
		flaky := []StepKind{StepDropProb, StepDelay, StepDuplicate}
		for _, k := range flaky {
			if rng.Intn(2) == 0 {
				eps = append(eps, episode{k})
			}
		}
	}
	rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })

	jitter := func(mean time.Duration) time.Duration {
		// Uniform in [mean/2, 3·mean/2]; never zero.
		d := mean/2 + time.Duration(rng.Int63n(int64(mean)+1))
		if d <= 0 {
			d = time.Millisecond
		}
		return d
	}
	pick := func() model.ProcID { return o.Procs[rng.Intn(len(o.Procs))] }

	var steps []Step
	at := o.Start
	for _, ep := range eps {
		at += jitter(o.MeanGap)
		open := Step{At: at, Kind: ep.kind}
		var repair StepKind
		switch ep.kind {
		case StepPartition:
			open.Groups = splitGroups(rng, o.Procs)
			repair = StepHeal
		case StepIsolateOne:
			open.Victim = pick()
			repair = StepHeal
		case StepCrash:
			open.Victim = pick()
			repair = StepRestart
		case StepDropProb:
			open.Prob = 0.05 + rng.Float64()*0.25
			repair = StepHeal
		case StepDelay:
			open.Delay = time.Duration(1+rng.Intn(5)) * 10 * time.Millisecond
			repair = StepHeal
		case StepDuplicate:
			open.Prob = 0.1 + rng.Float64()*0.4
			repair = StepHeal
		}
		steps = append(steps, open)
		at += jitter(o.MeanHold)
		fix := Step{At: at, Kind: repair}
		if repair == StepRestart {
			fix.Victim = open.Victim
		}
		steps = append(steps, fix)
	}
	// Belt and braces: one final heal so even a hand-edited schedule
	// ends fault-free.
	at += jitter(o.MeanGap)
	steps = append(steps, Step{At: at, Kind: StepHeal})

	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	return Schedule{Steps: steps, End: at}
}

// GenerateShard builds the deterministic single-shard fault schedule of
// the shard campaign cell: within [start, start+window], partition the
// given shard's traffic into groups at start + window/4 and heal at
// start + 3·window/4. The cluster-wide network stays healthy throughout,
// so any stall observed on other shards is a protocol bug, not a fault.
func GenerateShard(shard model.ShardID, groups [][]model.ProcID, start, window time.Duration) Schedule {
	gs := make([][]model.ProcID, len(groups))
	for i, g := range groups {
		gs[i] = sortedCopy(g)
	}
	end := start + 3*window/4
	return Schedule{
		Steps: []Step{
			{At: start + window/4, Kind: StepShardPartition, Shard: shard, Groups: gs},
			{At: end, Kind: StepHeal},
		},
		End: end,
	}
}

// splitGroups splits procs into two or three non-empty groups, shuffled.
func splitGroups(rng *rand.Rand, procs []model.ProcID) [][]model.ProcID {
	ps := append([]model.ProcID(nil), procs...)
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	ngroups := 2
	if len(ps) >= 5 && rng.Intn(3) == 0 {
		ngroups = 3
	}
	// Cut points chosen so every group is non-empty.
	cut1 := 1 + rng.Intn(len(ps)-ngroups+1)
	groups := [][]model.ProcID{sortedCopy(ps[:cut1])}
	rest := ps[cut1:]
	if ngroups == 3 {
		cut2 := 1 + rng.Intn(len(rest)-1)
		groups = append(groups, sortedCopy(rest[:cut2]), sortedCopy(rest[cut2:]))
	} else {
		groups = append(groups, sortedCopy(rest))
	}
	return groups
}

func sortedCopy(ps []model.ProcID) []model.ProcID {
	out := append([]model.ProcID(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
