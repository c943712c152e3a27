package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/nemesis"
)

// determinismSpec is the seeded sim matrix used by the regression: the
// same seed-1 convention as internal/bench/golden_test.go, extended from
// single experiments to whole campaign cells.
func determinismSpec() Spec {
	return Spec{
		Name: "determinism",
		Seed: 1,
		Axes: Axes{
			Backend:      []string{BackendSim},
			N:            []int{3, 5},
			ReadFraction: []float64{0.5, 0.9},
		},
		Phases:     Phases{RampMS: 100, SteadyMS: 200, FaultMS: 300, HealMS: 300},
		RatePerSec: 200,
	}
}

// stripWallClock zeroes the only field allowed to differ between two
// runs of the same deterministic cell.
func stripWallClock(cells []CellResult) []CellResult {
	out := append([]CellResult(nil), cells...)
	for i := range out {
		out[i].WallMS = 0
	}
	return out
}

func marshalCells(t *testing.T, cells []CellResult) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(stripWallClock(cells), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// TestSimCellDeterminism runs the same seeded sim campaign serially and
// with a parallel worker pool, twice each, and demands byte-identical
// per-cell artifacts: digests, gate verdicts, every metric. This is the
// property that makes any campaign failure reproducible by seed and lets
// -parallel runs be trusted at all.
func TestSimCellDeterminism(t *testing.T) {
	spec := determinismSpec()
	serial, err := Run(spec, 1, nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Run(spec, 4, nil)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	parallel2, err := Run(spec, 4, nil)
	if err != nil {
		t.Fatalf("second parallel run: %v", err)
	}

	for i, c := range serial.Cells {
		if !c.OK() {
			t.Fatalf("cell %s failed: %v", c.ID, c.Failures)
		}
		if c.Digest == "" {
			t.Fatalf("cell %s has no digest", c.ID)
		}
		if p := parallel.Cells[i]; p.Digest != c.Digest {
			t.Errorf("cell %s: serial digest %s != parallel digest %s", c.ID, c.Digest, p.Digest)
		}
	}
	ser := marshalCells(t, serial.Cells)
	par := marshalCells(t, parallel.Cells)
	par2 := marshalCells(t, parallel2.Cells)
	if !bytes.Equal(ser, par) {
		t.Error("serial and parallel cell artifacts differ byte-for-byte")
	}
	if !bytes.Equal(par, par2) {
		t.Error("two parallel runs differ byte-for-byte")
	}
}

// TestCellSeedsAreStable pins the seed derivation: reordering the matrix
// or renaming an axis value must not silently re-seed existing cells.
func TestCellSeedsAreStable(t *testing.T) {
	cells, err := determinismSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]int64{}
	for _, c := range cells {
		byID[c.ID] = c.Seed
	}
	again, err := determinismSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range again {
		if byID[c.ID] != c.Seed {
			t.Errorf("cell %s re-seeded: %d then %d", c.ID, byID[c.ID], c.Seed)
		}
	}
	// Distinct cells get distinct seeds.
	seen := map[int64]string{}
	for _, c := range cells {
		if prev, dup := seen[c.Seed]; dup {
			t.Errorf("cells %s and %s share seed %d", prev, c.ID, c.Seed)
		}
		seen[c.Seed] = c.ID
	}
}

// TestSimReplayDeterministic replays each sim cell of make chaos's spec
// (specs/chaos.json) at a second seed twice, and demands that every gate
// passes and that the two runs of a cell are byte-identical even with
// partitions, crash/restarts and flaky links injected mid-run. Each
// cell's digest must also equal the one pinned in
// testdata/chaos_seed11_sim.digests ("<cell id> <digest>" a line), so a
// change that moves any simulated event fails here. Re-pin only for a
// change that is meant to alter the protocol's behaviour or its fault
// schedules, with the digests this test reports.
func TestSimReplayDeterministic(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	pins, err := os.ReadFile(filepath.Join("testdata", "chaos_seed11_sim.digests"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(pins)), "\n") {
		if id, digest, ok := strings.Cut(line, " "); ok {
			pinned[id] = digest
		}
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	spec.Seed = 11
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	faults := map[nemesis.StepKind]int{}
	replayed := 0
	for _, c := range cells {
		if c.Backend != BackendSim {
			continue
		}
		for k, n := range BuildPlan(c).Faults.Counts() {
			faults[k] += n
		}
		first, second := RunCell(c), RunCell(c)
		if !first.OK() {
			t.Fatalf("cell %s failed: %v", c.ID, first.Failures)
		}
		if first.Digest == "" || first.Digest != second.Digest {
			t.Errorf("cell %s: replay digest %q != %q", c.ID, second.Digest, first.Digest)
		}
		if first.Digest != pinned[c.ID] {
			t.Errorf("cell %s: digest %s, pinned %q", c.ID, first.Digest, pinned[c.ID])
		}
		if !bytes.Equal(marshalCells(t, []CellResult{first}), marshalCells(t, []CellResult{second})) {
			t.Errorf("cell %s: two replays differ byte-for-byte", c.ID)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("chaos spec has no sim cells")
	}
	if replayed != len(pinned) {
		t.Errorf("replayed %d sim cells, %d pinned", replayed, len(pinned))
	}
	if faults[nemesis.StepPartition]+faults[nemesis.StepIsolateOne] == 0 || faults[nemesis.StepCrash] == 0 {
		t.Errorf("sim cells inject no partitions or no crashes: %v", faults)
	}
}
