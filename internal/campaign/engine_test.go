package campaign

import (
	"strings"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/nemesis"
)

func fastCell(t *testing.T, inject string) Cell {
	t.Helper()
	spec := Spec{
		Name:   "engine-test",
		Seed:   1,
		Axes:   Axes{Backend: []string{BackendSim}, N: []int{3}},
		Phases: Phases{RampMS: 100, SteadyMS: 200, FaultMS: 300, HealMS: 300},
		Inject: inject,
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

func TestBuildPlanPhases(t *testing.T) {
	c := fastCell(t, InjectNone)
	plan := BuildPlan(c)
	warm := 3 * (20*c.Delta + 8*c.Delta)
	if len(plan.Txns) == 0 {
		t.Fatal("no workload")
	}
	for i, s := range plan.Txns {
		if s.At < warm {
			t.Fatalf("txn %d at %v inside warm-up (< %v)", i, s.At, warm)
		}
		if i > 0 && s.At < plan.Txns[i-1].At {
			t.Fatalf("txn arrivals not monotone at %d", i)
		}
	}
	faultStart := warm + c.Phases.ramp() + c.Phases.steady()
	healStart := faultStart + c.Phases.fault()
	for _, st := range plan.Faults.Steps {
		if st.At < faultStart || st.At > healStart {
			t.Fatalf("fault step at %v outside window [%v, %v]", st.At, faultStart, healStart)
		}
	}
	if len(plan.Probes) != probeCount {
		t.Fatalf("%d probes, want %d", len(plan.Probes), probeCount)
	}
	for _, p := range plan.Probes {
		if p.At <= healStart || p.At >= plan.End {
			t.Fatalf("probe at %v outside heal window (%v, %v)", p.At, healStart, plan.End)
		}
		if !isProbeTag(p.Txn.Request.Tag) {
			t.Fatalf("probe tag %d below reserved range", p.Txn.Request.Tag)
		}
	}
	// The last load arrival precedes the heal window: heal is drain-only.
	if last := plan.Txns[len(plan.Txns)-1].At; last >= healStart {
		t.Fatalf("load arrival %v inside heal window", last)
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	c := fastCell(t, InjectNone)
	a, b := BuildPlan(c), BuildPlan(c)
	if len(a.Txns) != len(b.Txns) || a.End != b.End || len(a.Faults.Steps) != len(b.Faults.Steps) {
		t.Fatal("two plans of the same cell differ")
	}
	for i := range a.Txns {
		if a.Txns[i].At != b.Txns[i].At || a.Txns[i].Txn.Request.Tag != b.Txns[i].Txn.Request.Tag {
			t.Fatalf("plan txn %d differs", i)
		}
	}
}

func TestNemesisProfiles(t *testing.T) {
	base := fastCell(t, InjectNone)
	window := func(c Cell) (time.Duration, time.Duration) {
		warm := 3 * (20*c.Delta + 8*c.Delta)
		start := warm + c.Phases.ramp() + c.Phases.steady()
		return start, start + c.Phases.fault()
	}
	for _, profile := range []string{NemesisNone, NemesisPartitions, NemesisCrashes, NemesisMixed, NemesisKill9} {
		c := base
		c.Nemesis = profile
		start, end := window(c)
		sched := buildNemesis(c, start, end)
		if sched.End > end {
			t.Errorf("%s: schedule end %v past window end %v", profile, sched.End, end)
		}
		counts := sched.Counts()
		switch profile {
		case NemesisNone:
			if len(sched.Steps) != 0 {
				t.Errorf("none: %d steps", len(sched.Steps))
			}
		case NemesisPartitions:
			if counts[nemesis.StepPartition]+counts[nemesis.StepIsolateOne] == 0 {
				t.Errorf("partitions: no partition episodes")
			}
			if counts[nemesis.StepCrash]+counts[nemesis.StepRestart] != 0 {
				t.Errorf("partitions profile contains crash/restart steps")
			}
		case NemesisCrashes:
			if counts[nemesis.StepCrash] == 0 {
				t.Errorf("crashes: no crash episodes")
			}
			if counts[nemesis.StepPartition]+counts[nemesis.StepIsolateOne] != 0 {
				t.Errorf("crashes profile contains partition steps")
			}
		case NemesisMixed:
			if len(sched.Steps) == 0 {
				t.Errorf("mixed: empty schedule")
			}
		case NemesisKill9:
			if counts[nemesis.StepKill] == 0 || counts[nemesis.StepCrash] != 0 {
				t.Errorf("kill9: %v, want kills and no clean crashes", counts)
			}
			if counts[nemesis.StepPartition]+counts[nemesis.StepIsolateOne] != 0 {
				t.Errorf("kill9 profile contains partition steps")
			}
		}
	}
}

// TestInjectedViolationsTripTheirGates proves the gates have teeth: a
// healthy run plus each fabricated violation must fail exactly the
// matching gate and make the campaign fail.
func TestInjectedViolationsTripTheirGates(t *testing.T) {
	cases := []struct {
		inject string
		check  func(t *testing.T, r CellResult)
	}{
		{InjectS2, func(t *testing.T, r CellResult) {
			if r.Gates.TraceInvariants {
				t.Error("S2 injection did not trip the trace gate")
			}
			if !r.Gates.OneSR || !r.Gates.Liveness {
				t.Errorf("S2 injection tripped unrelated gates: %+v", r.Gates)
			}
		}},
		{InjectHistory, func(t *testing.T, r CellResult) {
			if r.Gates.OneSR {
				t.Error("write-skew injection did not trip the 1SR gate")
			}
			if !r.Gates.TraceInvariants || !r.Gates.Liveness {
				t.Errorf("history injection tripped unrelated gates: %+v", r.Gates)
			}
		}},
		{InjectLiveness, func(t *testing.T, r CellResult) {
			if r.Gates.Liveness {
				t.Error("liveness injection did not trip the liveness gate")
			}
			if !r.Gates.OneSR || !r.Gates.TraceInvariants {
				t.Errorf("liveness injection tripped unrelated gates: %+v", r.Gates)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.inject, func(t *testing.T) {
			r := RunCell(fastCell(t, tc.inject))
			if r.OK() {
				t.Fatalf("injected cell passed: %+v", r.Gates)
			}
			if len(r.Failures) == 0 {
				t.Fatal("failing cell has no diagnostics")
			}
			tc.check(t, r)
		})
	}
}

func TestCleanCellPasses(t *testing.T) {
	r := RunCell(fastCell(t, InjectNone))
	if !r.OK() {
		t.Fatalf("clean sim cell failed: gates=%+v failures=%v", r.Gates, r.Failures)
	}
	if r.Committed == 0 || r.Submitted == 0 {
		t.Fatalf("no throughput recorded: %+v", r)
	}
	if r.Digest == "" || r.WallMS < 0 {
		t.Fatalf("missing run metadata: %+v", r)
	}
	// The sim platform records with tracing on, so the cell must carry a
	// phase-latency breakdown assembled from the captured spans, and the
	// coordinator's root phase must be among them.
	if len(r.Phases) == 0 {
		t.Fatal("cell has no span phase breakdown")
	}
	found := false
	for _, ph := range r.Phases {
		if ph.Phase == "coord-txn" && ph.Count > 0 && ph.P50MS >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no coord-txn phase in breakdown: %+v", r.Phases)
	}
}

// TestRunFailsCampaignOnInjectedCell is the end-to-end acceptance shape:
// a campaign whose spec seeds a violation reports failed cells, which
// the vpcampaign driver turns into a non-zero exit.
func TestRunFailsCampaignOnInjectedCell(t *testing.T) {
	spec := Spec{
		Name:   "injected",
		Seed:   1,
		Axes:   Axes{Backend: []string{BackendSim}, N: []int{3}},
		Phases: Phases{RampMS: 100, SteadyMS: 200, FaultMS: 300, HealMS: 300},
		Inject: InjectS2,
	}
	var logged []string
	res, err := Run(spec, 2, func(format string, args ...any) {
		logged = append(logged, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("campaign with injected violation reported OK")
	}
	if len(res.Failed()) != 1 {
		t.Fatalf("failed cells = %v, want exactly the injected one", res.Failed())
	}
	if len(logged) == 0 {
		t.Error("logf not called for completed cells")
	}
	found := false
	for _, f := range res.Cells[0].Failures {
		if strings.Contains(f, "S2") {
			found = true
		}
	}
	if !found {
		t.Errorf("failure diagnostics missing S2: %v", res.Cells[0].Failures)
	}
}
