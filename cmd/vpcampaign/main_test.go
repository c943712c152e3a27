package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/campaign"
)

func TestParseArgs(t *testing.T) {
	if _, err := parseArgs(nil); err == nil {
		t.Fatal("parseArgs accepted a missing -spec")
	}
	opt, err := parseArgs([]string{"-spec", "s.json", "-parallel", "3", "-seed", "9", "-force", "-list", "-v", "-out", "t.json"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.specPath != "s.json" || opt.parallel != 3 || opt.seed != 9 ||
		!opt.force || !opt.list || !opt.verbose || opt.out != "t.json" {
		t.Fatalf("parseArgs: %+v", opt)
	}
	if _, err := parseArgs([]string{"-bogus"}); err == nil {
		t.Fatal("parseArgs accepted an unknown flag")
	}
}

func writeSpec(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpecStrict(t *testing.T) {
	// A typoed axis key must be an error, not a silently shrunk matrix.
	path := writeSpec(t, map[string]any{
		"name": "typo",
		"axes": map[string]any{"backendz": []string{"sim"}},
	})
	if _, _, err := loadSpec(path); err == nil {
		t.Fatal("loadSpec accepted an unknown axis key")
	}

	// What the campaign does not run is refused by name, not ignored:
	// the deleted live backend and group-commit axis, and kill9 without
	// the inproc backend.
	for _, tc := range []struct {
		axes map[string]any
		name string
	}{
		{map[string]any{"group_commit": []bool{false, true}}, `"group_commit"`},
		{map[string]any{"backend": []string{"live"}}, `"live"`},
		{map[string]any{"nemesis": []string{"kill9"}}, `"kill9"`},
	} {
		path := writeSpec(t, map[string]any{"name": "gone", "axes": tc.axes})
		_, _, err := loadSpec(path)
		if err == nil {
			t.Errorf("loadSpec accepted axes %v", tc.axes)
		} else if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("axes %v: error %q does not name %s", tc.axes, err, tc.name)
		}
	}

	good := writeSpec(t, map[string]any{
		"name": "ok",
		"axes": map[string]any{"backend": []string{"sim"}, "n": []int{3}},
	})
	spec, raw, err := loadSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "ok" || len(raw) == 0 {
		t.Fatalf("loadSpec: %+v", spec)
	}

	if _, _, err := loadSpec(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loadSpec on a missing file succeeded")
	}
}

// TestRunInjectedSpecFails is the CLI half of the acceptance criterion: a
// spec that seeds a violation makes run() return an error (→ exit 1),
// and the trajectory still records the failing cell.
func TestRunInjectedSpecFails(t *testing.T) {
	spec := campaign.Spec{
		Name:   "cli-injected",
		Seed:   1,
		Axes:   campaign.Axes{Backend: []string{campaign.BackendSim}, N: []int{3}},
		Phases: campaign.Phases{RampMS: 100, SteadyMS: 200, FaultMS: 300, HealMS: 300},
		Inject: campaign.InjectS2,
	}
	out := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	opt := &options{specPath: writeSpec(t, spec), out: out, parallel: 2}
	err := run(opt)
	if err == nil {
		t.Fatal("run() on an injected spec returned nil")
	}
	if !strings.Contains(err.Error(), "failed invariant gates") {
		t.Fatalf("unexpected error: %v", err)
	}
	raw, readErr := os.ReadFile(out)
	if readErr != nil {
		t.Fatalf("trajectory not written on failure: %v", readErr)
	}
	var doc campaign.Trajectory
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 1 || len(doc.Entries[0].Cells) != 1 || doc.Entries[0].Cells[0].OK() {
		t.Fatalf("trajectory does not record the failing cell: %+v", doc.Entries)
	}
}

// TestRunCleanSpecPasses drives the full CLI path on a healthy sim cell.
func TestRunCleanSpecPasses(t *testing.T) {
	spec := campaign.Spec{
		Name:   "cli-clean",
		Seed:   1,
		Axes:   campaign.Axes{Backend: []string{campaign.BackendSim}, N: []int{3}},
		Phases: campaign.Phases{RampMS: 100, SteadyMS: 200, FaultMS: 300, HealMS: 300},
	}
	opt := &options{specPath: writeSpec(t, spec), parallel: 1, verbose: true}
	if err := run(opt); err != nil {
		t.Fatalf("run() on a clean spec: %v", err)
	}
}

// TestRunList expands without executing, so -list is safe on real-time
// specs.
func TestRunList(t *testing.T) {
	spec := campaign.Spec{
		Name: "cli-list",
		Axes: campaign.Axes{Backend: []string{campaign.BackendInproc}, N: []int{5, 7}},
	}
	opt := &options{specPath: writeSpec(t, spec), list: true}
	if err := run(opt); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
}
