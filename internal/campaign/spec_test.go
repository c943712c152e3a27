package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/virtualpartitions/vp/internal/nemesis"
)

func TestExpandDefaults(t *testing.T) {
	cells, err := Spec{Name: "one"}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("empty axes expanded to %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Backend != BackendSim || c.N != 5 || c.Objects != 4 || c.Nemesis != NemesisMixed {
		t.Fatalf("unexpected default cell: %+v", c)
	}
	if c.Delta != 2*time.Millisecond {
		t.Fatalf("sim default delta = %v", c.Delta)
	}
	if c.Seed == 0 {
		t.Fatal("cell seed not derived")
	}
}

func TestExpandCrossProduct(t *testing.T) {
	spec := Spec{
		Axes: Axes{
			Backend:      []string{BackendSim, BackendInproc},
			N:            []int{3, 5},
			ReadFraction: []float64{0.5, 0.9},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("expanded to %d cells, want 8", len(cells))
	}
	ids := map[string]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %s has index %d at position %d", c.ID, c.Index, i)
		}
		if ids[c.ID] {
			t.Errorf("duplicate cell id %s", c.ID)
		}
		ids[c.ID] = true
		if c.Delta != defaultDelta(c.Backend) {
			t.Errorf("cell %s: delta %v, want the %s default", c.ID, c.Delta, c.Backend)
		}
	}
	if got := cells[0].ID; got != "sim/n3/o4/z0.00/rf0.50/mixed" {
		t.Errorf("first cell id = %q", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Axes: Axes{Backend: []string{"docker"}}},
		{Axes: Axes{N: []int{2}}},
		{Axes: Axes{Objects: []int{0}}},
		{Axes: Axes{ReadFraction: []float64{1.5}}},
		{Axes: Axes{Nemesis: []string{"meteor"}}},
		{Axes: Axes{Backend: []string{"live"}}},
		{Axes: Axes{Nemesis: []string{NemesisKill9}}}, // sim only: no disk to fail
		{Inject: "coffee"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not: %+v", i, s)
		}
	}
	// kill9 beside the inproc backend validates, and its sim cells are
	// not expanded.
	cells, err := Spec{Axes: Axes{Backend: []string{BackendSim, BackendInproc}, Nemesis: []string{NemesisKill9}}}.Expand()
	if err != nil {
		t.Fatalf("kill9 with inproc refused: %v", err)
	}
	if len(cells) != 1 || cells[0].Backend != BackendInproc {
		t.Fatalf("kill9 expanded to %+v, want the inproc cell only", cells)
	}
}

// TestCheckedInSpecs holds the repo's spec files to the acceptance bar:
// the smoke spec is the 4-cell CI matrix, and the default spec expands
// to at least 8 cells across at least 2 backends.
func TestCheckedInSpecs(t *testing.T) {
	load := func(name string) Spec {
		raw, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		var s Spec
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		return s
	}

	smoke, err := load("campaign-smoke.json").Expand()
	if err != nil {
		t.Fatalf("smoke: %v", err)
	}
	if len(smoke) != 4 {
		t.Errorf("smoke spec expands to %d cells, want the documented 4", len(smoke))
	}
	for _, c := range smoke {
		if c.Backend != BackendSim {
			t.Errorf("smoke cell %s is not sim-backend; CI budget assumes sim", c.ID)
		}
	}

	def, err := load("campaign-default.json").Expand()
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	if len(def) < 8 {
		t.Errorf("default spec expands to %d cells, want >= 8", len(def))
	}
	backends := map[string]bool{}
	for _, c := range def {
		backends[c.Backend] = true
	}
	if len(backends) < 2 {
		t.Errorf("default spec covers %d backends, want >= 2", len(backends))
	}

	// The chaos spec: every profile on both backends, but kill9 on
	// inproc only.
	chaos, err := load("chaos.json").Expand()
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if len(chaos) != 7 {
		t.Errorf("chaos spec expands to %d cells, want 7", len(chaos))
	}
}

// TestChaosScheduleShape: at make chaos's default seed, the chaos spec's
// inproc cells inject at least three partition-type episodes, two clean
// crash/restarts and two kill -9s, every fault closed before the heal
// window.
func TestChaosScheduleShape(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	spec.Seed = 7
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := map[nemesis.StepKind]int{}
	for _, c := range cells {
		if c.Backend != BackendInproc {
			continue
		}
		s := BuildPlan(c).Faults
		counts := s.Counts()
		for k, n := range counts {
			total[k] += n
		}
		if counts[nemesis.StepRestart] != counts[nemesis.StepCrash]+counts[nemesis.StepKill] {
			t.Errorf("%s: crash/kill/restart mismatch: %v", c.ID, counts)
		}
		if last := s.Steps[len(s.Steps)-1]; last.Kind != nemesis.StepHeal {
			t.Errorf("%s: schedule ends with %s, not a heal", c.ID, last.Kind)
		}
	}
	t.Logf("inproc cells at seed 7: %v", total)
	if got := total[nemesis.StepPartition] + total[nemesis.StepIsolateOne]; got < 3 {
		t.Errorf("%d partition-type episodes, want >= 3", got)
	}
	if total[nemesis.StepCrash] < 2 || total[nemesis.StepKill] < 2 {
		t.Errorf("%d crashes and %d kills, want >= 2 of each", total[nemesis.StepCrash], total[nemesis.StepKill])
	}
}
