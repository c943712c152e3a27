package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
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
		{Axes: Axes{Nemesis: []string{"kill9"}}},
		{Inject: "coffee"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not: %+v", i, s)
		}
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
}
