package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTraceSeed1 pins the end-to-end determinism contract: for a
// fixed seed, experiments E1, E2 and E12 must render byte-identical
// markdown across runs, machines, and — critically — engine-internal
// changes (heap arity, arena slot reuse, compaction). The golden file was
// captured with `vpbench -exp e1,e2,e12 -seed 1 -markdown`; execution
// order is a pure function of (time, sequence), so any diff here means a
// scheduling semantics regression, not a formatting one.
//
// Regenerate both golden files after an intentional output change with
// `make golden`.
func TestGoldenTraceSeed1(t *testing.T) {
	checkGolden(t, "golden_seed1.md", "e1", "e2", "e12")
}

// TestGoldenSeed1RestOfExperiments pins the other thirteen experiments
// the same way, so that all sixteen tables are fixed at seed 1. The
// golden file was captured with `vpbench -exp
// e3,e4,e5,e6,e7,e8,e9,e10,e11,e13,e14,e15,e16 -seed 1 -markdown`.
func TestGoldenSeed1RestOfExperiments(t *testing.T) {
	checkGolden(t, "golden_seed1_e3_e16.md",
		"e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14", "e15", "e16")
}

// checkGolden runs the experiments ids at seed 1 and compares their
// markdown, as vpbench prints it, with testdata/file.
func checkGolden(t *testing.T, file string, ids ...string) {
	if testing.Short() {
		t.Skip("the experiments run fault-injection trials; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, id := range ids {
		e := Find(id)
		if e == nil {
			t.Fatalf("experiment %s not registered", id)
		}
		b.WriteString(e.Run(1).Markdown())
		b.WriteString("\n") // vpbench prints each table with Println
	}
	if got := b.String(); got != string(want) {
		t.Errorf("seed-1 output diverged from %s:\n--- got\n%s\n--- want\n%s",
			file, got, want)
	}
}
