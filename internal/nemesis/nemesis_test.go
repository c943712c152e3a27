package nemesis

import (
	"reflect"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
	"github.com/virtualpartitions/vp/internal/net"
	"github.com/virtualpartitions/vp/internal/wire"
)

func procs(n int) []model.ProcID {
	out := make([]model.ProcID, n)
	for i := range out {
		out[i] = model.ProcID(i + 1)
	}
	return out
}

// TestGenerateDeterministic: the same seed must yield the same schedule,
// different seeds (usually) different ones.
func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Procs: procs(5), Start: time.Second, Flaky: true}
	a := Generate(42, opts)
	b := Generate(42, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\nvs\n%s", a, b)
	}
	c := Generate(43, opts)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 42 and 43 produced identical schedules:\n%s", a)
	}
}

// TestGenerateConstraints: minimum episode counts, pairing of faults with
// repairs, ordering, and a fault-free ending.
func TestGenerateConstraints(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := Generate(seed, Options{Procs: procs(5), MinPartitions: 3, MinCrashes: 2, Flaky: true})
		counts := s.Counts()
		if got := counts[StepPartition] + counts[StepIsolateOne]; got < 3 {
			t.Errorf("seed %d: %d partition-type episodes, want >= 3", seed, got)
		}
		if counts[StepCrash] < 2 {
			t.Errorf("seed %d: %d crashes, want >= 2", seed, counts[StepCrash])
		}
		if counts[StepRestart] != counts[StepCrash] {
			t.Errorf("seed %d: %d restarts for %d crashes", seed, counts[StepRestart], counts[StepCrash])
		}
		// Steps are time-ordered and the last one is a heal.
		for i := 1; i < len(s.Steps); i++ {
			if s.Steps[i].At < s.Steps[i-1].At {
				t.Fatalf("seed %d: steps out of order at %d", seed, i)
			}
		}
		last := s.Steps[len(s.Steps)-1]
		if last.Kind != StepHeal || last.At != s.End {
			t.Errorf("seed %d: schedule must end with a heal at End, got %v", seed, last)
		}
		// Episodes never overlap: a crash victim is restarted before the
		// next fault opens, so walking the steps tracks at most one open
		// fault at a time.
		open := 0
		for _, st := range s.Steps {
			switch st.Kind {
			case StepPartition, StepIsolateOne, StepCrash, StepDropProb, StepDelay, StepDuplicate:
				open++
				if open > 1 {
					t.Fatalf("seed %d: overlapping fault episodes:\n%s", seed, s)
				}
			case StepHeal, StepRestart:
				if open > 0 {
					open--
				}
			}
		}
		// Partition groups must cover all processors (nobody silently
		// isolated) and be disjoint.
		for _, st := range s.Steps {
			if st.Kind != StepPartition {
				continue
			}
			seen := map[model.ProcID]bool{}
			for _, g := range st.Groups {
				if len(g) == 0 {
					t.Fatalf("seed %d: empty partition group", seed)
				}
				for _, p := range g {
					if seen[p] {
						t.Fatalf("seed %d: %v in two groups", seed, p)
					}
					seen[p] = true
				}
			}
			if len(seen) != 5 {
				t.Fatalf("seed %d: partition covers %d of 5 procs", seed, len(seen))
			}
		}
	}
}

// topo returns a fault-free topology over processors 1..n.
func topo(t *testing.T, n int) *net.Topology {
	t.Helper()
	tp, err := net.NewTopology(n, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestApplyPartition: cross-group sends drop, intra-group pass, heal
// restores everything.
func TestApplyPartition(t *testing.T) {
	tp := topo(t, 3)
	Apply(tp, Step{Kind: StepPartition, Groups: [][]model.ProcID{{1, 2}, {3}}})
	if v := tp.Outbound(1, 3, wire.Probe{}); !v.Drop {
		t.Fatal("cross-group send must drop")
	}
	if v := tp.Outbound(1, 2, wire.Probe{}); v.Drop {
		t.Fatal("intra-group send must pass")
	}
	Apply(tp, Step{Kind: StepHeal})
	if v := tp.Outbound(1, 3, wire.Probe{}); v.Drop {
		t.Fatal("heal must reconnect")
	}
}

// TestApplyIsolateOne: only the victim's links are cut.
func TestApplyIsolateOne(t *testing.T) {
	tp := topo(t, 3)
	Apply(tp, Step{Kind: StepIsolateOne, Victim: 2})
	if v := tp.Outbound(1, 2, wire.Probe{}); !v.Drop {
		t.Fatal("send to isolated proc must drop")
	}
	if v := tp.Outbound(2, 3, wire.Probe{}); !v.Drop {
		t.Fatal("send from isolated proc must drop")
	}
	if v := tp.Outbound(1, 3, wire.Probe{}); v.Drop {
		t.Fatal("bystanders must stay connected")
	}
	Apply(tp, Step{Kind: StepHeal})
	if v := tp.Outbound(1, 2, wire.Probe{}); v.Drop {
		t.Fatal("heal must reconnect the victim")
	}
}

// TestApplyFlaky: drop-prob, delay and duplicate verdicts.
func TestApplyFlaky(t *testing.T) {
	tp := topo(t, 2)
	tp.Seed(7)
	Apply(tp, Step{Kind: StepDropProb, Prob: 1})
	if v := tp.Outbound(1, 2, wire.Probe{}); !v.Drop {
		t.Fatal("prob 1 must drop everything")
	}
	Apply(tp, Step{Kind: StepHeal})

	Apply(tp, Step{Kind: StepDelay, Delay: 30 * time.Millisecond})
	if v := tp.Outbound(1, 2, wire.Probe{}); v.Delay != 30*time.Millisecond {
		t.Fatalf("delay verdict = %v, want 30ms", v.Delay)
	}
	Apply(tp, Step{Kind: StepDuplicate, Prob: 1})
	if v := tp.Outbound(1, 2, wire.Probe{}); !v.Duplicate {
		t.Fatal("prob 1 must duplicate everything")
	}
	Apply(tp, Step{Kind: StepHeal})
	v := tp.Outbound(1, 2, wire.Probe{})
	if v.Drop || v.Delay != 0 || v.Duplicate {
		t.Fatalf("heal must clear flaky state, got %+v", v)
	}
}

// TestApplyCrashNotNetwork: crash, kill and restart are the harness's
// job.
func TestApplyCrashNotNetwork(t *testing.T) {
	tp := topo(t, 2)
	for _, k := range []StepKind{StepCrash, StepKill, StepRestart} {
		if Apply(tp, Step{Kind: k, Victim: 1}) {
			t.Fatalf("%s must not be a network step", k)
		}
	}
	if v := tp.Outbound(1, 2, wire.Probe{}); v.Drop {
		t.Fatal("crash step must not mutate network state")
	}
}

// TestApplyReadsAlike: after every network step of a flaky schedule
// without loss, the sim's reading of the topology (Connected) and a TCP
// node's (Outbound) agree on every pair.
func TestApplyReadsAlike(t *testing.T) {
	tp := topo(t, 5)
	// Seed 7 draws every network step kind but shard-partition.
	sched := Generate(7, Options{Procs: procs(5), MinPartitions: 6, Flaky: true})
	if c := sched.Counts(); c[StepIsolateOne]*c[StepPartition]*c[StepDropProb]*c[StepDelay]*c[StepDuplicate] == 0 {
		t.Fatalf("schedule misses a network step kind: %v", c)
	}
	for _, st := range sched.Steps {
		if st.Kind == StepDropProb {
			st.Prob = 0
		}
		if !Apply(tp, st) {
			continue
		}
		for a := model.ProcID(1); a <= 5; a++ {
			for b := model.ProcID(1); b <= 5; b++ {
				if c, v := tp.Connected(a, b), tp.Outbound(a, b, wire.Probe{}); c == v.Drop {
					t.Fatalf("after %v: Connected(%v, %v) = %v, Outbound %+v", st, a, b, c, v)
				}
			}
		}
	}
}
