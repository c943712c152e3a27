package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/virtualpartitions/vp/internal/benchstamp"
)

func trajEntry(name string, n int) TrajectoryEntry {
	return TrajectoryEntry{
		Campaign:   name,
		Seed:       1,
		SpecSHA256: SpecDigest([]byte(name)),
		Cells: []CellResult{{
			ID: "sim/n3", Backend: BackendSim, N: n, Seed: 7,
			Submitted: 10, Committed: 9,
			Gates:  Gates{Progress: true, OneSR: true, TraceInvariants: true, Liveness: true},
			Digest: "abc",
		}},
	}
}

// TestTrajectoryAppendOrder: entries accumulate in append order and
// survive a round-trip, so the file is a usable cross-PR time series.
func TestTrajectoryAppendOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")

	doc, err := AppendTrajectory(path, trajEntry("first", 3), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 1 {
		t.Fatalf("fresh file has %d entries", len(doc.Entries))
	}
	if doc.Baseline != benchstamp.Host() {
		t.Fatalf("trajectory not stamped with host baseline: %+v", doc.Baseline)
	}

	doc, err = AppendTrajectory(path, trajEntry("second", 5), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 2 || doc.Entries[0].Campaign != "first" || doc.Entries[1].Campaign != "second" {
		t.Fatalf("append order broken: %+v", doc.Entries)
	}

	// Round-trip: what AppendTrajectory returned is what is on disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Trajectory
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 2 || back.Entries[1].Cells[0].N != 5 {
		t.Fatalf("round-trip mismatch: %+v", back.Entries)
	}
}

// TestTrajectorySchemaStability pins the top-level and per-cell JSON
// keys. Downstream diff tooling reads these names; renames must be
// deliberate.
func TestTrajectorySchemaStability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if _, err := AppendTrajectory(path, trajEntry("schema", 3), false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"go"`, `"goos"`, `"goarch"`, `"gomaxprocs"`, `"entries"`,
		`"campaign"`, `"seed"`, `"spec_sha256"`, `"cells"`,
		`"id"`, `"backend"`, `"n"`, `"objects"`, `"zipf"`, `"read_fraction"`,
		`"nemesis"`,
		`"submitted"`, `"committed"`, `"aborted"`, `"denied"`, `"pending"`,
		`"availability"`, `"latency_p50_ms"`, `"latency_p95_ms"`,
		`"msgs_per_commit"`, `"view_changes"`, `"gates"`, `"digest"`, `"wall_ms"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("trajectory missing schema key %s", key)
		}
	}
	if !strings.HasSuffix(string(raw), "\n") {
		t.Error("trajectory file not newline-terminated")
	}
}

// TestTrajectoryCrossBaselineGuard: a file recorded on another host is
// refused without force, and force replaces the whole file rather than
// mixing incomparable entries.
func TestTrajectoryCrossBaselineGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	other := Trajectory{
		Baseline: benchstamp.Baseline{GoVersion: "go0.0", GOOS: "plan9", GOARCH: "mips", GOMAXPROCS: 1},
		Entries:  []TrajectoryEntry{trajEntry("foreign", 3)},
	}
	raw, _ := json.MarshalIndent(other, "", "  ")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := AppendTrajectory(path, trajEntry("mine", 3), false); err == nil {
		t.Fatal("cross-baseline append succeeded without force")
	} else if !strings.Contains(err.Error(), "-force") {
		t.Errorf("guard error not actionable: %v", err)
	}

	doc, err := AppendTrajectory(path, trajEntry("mine", 3), true)
	if err != nil {
		t.Fatalf("forced append: %v", err)
	}
	if len(doc.Entries) != 1 || doc.Entries[0].Campaign != "mine" {
		t.Fatalf("force did not replace foreign entries: %+v", doc.Entries)
	}
	if doc.Baseline != benchstamp.Host() {
		t.Fatalf("forced file keeps foreign baseline: %+v", doc.Baseline)
	}
}

// TestTrajectoryUnparseableGuard: garbage at the path is protected the
// same way — whatever it is, it was not measured here.
func TestTrajectoryUnparseableGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if err := os.WriteFile(path, []byte("}{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendTrajectory(path, trajEntry("x", 3), false); err == nil {
		t.Fatal("append over garbage succeeded without force")
	}
	doc, err := AppendTrajectory(path, trajEntry("x", 3), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 1 {
		t.Fatalf("forced append over garbage: %+v", doc.Entries)
	}
}

// TestTrajectoryAtomicWrite: no temp droppings remain next to the
// artifact after a successful append.
func TestTrajectoryAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_trajectory.json")
	if _, err := AppendTrajectory(path, trajEntry("atomic", 3), false); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "BENCH_trajectory.json" {
		var got []string
		for _, e := range names {
			got = append(got, e.Name())
		}
		t.Fatalf("stray files after append: %v", got)
	}
}

func TestSpecDigestStable(t *testing.T) {
	a, b := SpecDigest([]byte("spec")), SpecDigest([]byte("spec"))
	if a != b || len(a) != 64 {
		t.Fatalf("SpecDigest unstable or wrong length: %q %q", a, b)
	}
	if SpecDigest([]byte("other")) == a {
		t.Fatal("distinct specs share a digest")
	}
}
