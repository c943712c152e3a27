package nemesis

import (
	"reflect"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/model"
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

// TestInjectorPartition: cross-group sends drop, intra-group pass, heal
// restores everything.
func TestInjectorPartition(t *testing.T) {
	in := NewInjector(1)
	in.Apply(Step{Kind: StepPartition, Groups: [][]model.ProcID{{1, 2}, {3}}})
	if v := in.Outbound(1, 3, wire.Probe{}); !v.Drop {
		t.Fatal("cross-group send must drop")
	}
	if v := in.Outbound(1, 2, wire.Probe{}); v.Drop {
		t.Fatal("intra-group send must pass")
	}
	in.Apply(Step{Kind: StepHeal})
	if v := in.Outbound(1, 3, wire.Probe{}); v.Drop {
		t.Fatal("heal must reconnect")
	}
}

// TestInjectorIsolateOne: only the victim's links are cut.
func TestInjectorIsolateOne(t *testing.T) {
	in := NewInjector(1)
	in.Apply(Step{Kind: StepIsolateOne, Victim: 2})
	if v := in.Outbound(1, 2, wire.Probe{}); !v.Drop {
		t.Fatal("send to isolated proc must drop")
	}
	if v := in.Outbound(2, 3, wire.Probe{}); !v.Drop {
		t.Fatal("send from isolated proc must drop")
	}
	if v := in.Outbound(1, 3, wire.Probe{}); v.Drop {
		t.Fatal("bystanders must stay connected")
	}
	in.Apply(Step{Kind: StepHeal})
	if v := in.Outbound(1, 2, wire.Probe{}); v.Drop {
		t.Fatal("heal must reconnect the victim")
	}
}

// TestInjectorFlaky: drop-prob, delay and duplicate verdicts.
func TestInjectorFlaky(t *testing.T) {
	in := NewInjector(7)
	in.Apply(Step{Kind: StepDropProb, Prob: 1})
	if v := in.Outbound(1, 2, wire.Probe{}); !v.Drop {
		t.Fatal("prob 1 must drop everything")
	}
	in.Apply(Step{Kind: StepHeal})

	in.Apply(Step{Kind: StepDelay, Delay: 30 * time.Millisecond})
	if v := in.Outbound(1, 2, wire.Probe{}); v.Delay != 30*time.Millisecond {
		t.Fatalf("delay verdict = %v, want 30ms", v.Delay)
	}
	in.Apply(Step{Kind: StepDuplicate, Prob: 1})
	if v := in.Outbound(1, 2, wire.Probe{}); !v.Duplicate {
		t.Fatal("prob 1 must duplicate everything")
	}
	in.Apply(Step{Kind: StepHeal})
	v := in.Outbound(1, 2, wire.Probe{})
	if v.Drop || v.Delay != 0 || v.Duplicate {
		t.Fatalf("heal must clear flaky state, got %+v", v)
	}
}

// TestInjectorCrashNotNetwork: crash/restart are the harness's job.
func TestInjectorCrashNotNetwork(t *testing.T) {
	in := NewInjector(1)
	if in.Apply(Step{Kind: StepCrash, Victim: 1}) {
		t.Fatal("crash must not be handled by the injector")
	}
	if in.Apply(Step{Kind: StepRestart, Victim: 1}) {
		t.Fatal("restart must not be handled by the injector")
	}
	if v := in.Outbound(1, 2, wire.Probe{}); v.Drop {
		t.Fatal("crash step must not mutate network state")
	}
}
